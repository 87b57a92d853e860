"""Shortest-path properties: l̄, {P(l)}, and the diameter.

Computed on the largest connected component of the *simple projection* of
the graph (parallel edges and loops do not change unweighted distances),
matching the paper's evaluation protocol.

Two modes:

* exact — BFS from every node,
* sampled — BFS from a uniform subset of sources.  The per-pair length
  distribution from a uniform source sample is an unbiased estimate of the
  full distribution; the diameter estimate is the max eccentricity seen,
  refined with a double-sweep (restart a BFS from the farthest node found),
  a standard lower-bound tightening that is exact on most real graphs.

Two backends (the ``backend`` keyword, default ``"python"``):

* ``python`` — scipy's C-level ``csgraph.shortest_path`` over the dense
  per-source distance matrix, the historical reference path;
* ``csr`` — the bit-parallel BFS of :mod:`repro.engine.bfs_kernels` on a
  frozen snapshot of the component: 64 sources per machine word, each
  level counting its newly reached pairs straight into the length
  histogram, so the distance matrix is never materialized.  Bit-identical
  statistics by construction (the distances are integers and the
  aggregation mirrors the reference expressions operand for operand);
  ``auto`` picks it at every size.

The experiment harness flips to sampling above a configurable node count
(see :class:`repro.metrics.suite.EvaluationConfig`);
``benchmarks/bench_exact_paths.py`` measures what sampling costs in
accuracy (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csgraph

from repro.graph.components import largest_connected_component
from repro.graph.multigraph import MultiGraph
from repro.graph.simplify import simplified
from repro.metrics.matrix import node_ordering, to_csr
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:
    from repro.engine.csr import CSRGraph


@dataclass(frozen=True)
class ShortestPathStats:
    """Bundle of the three shortest-path properties (paper items 8-10)."""

    average_length: float
    length_distribution: dict[int, float]
    diameter: int
    exact: bool
    num_sources: int


def shortest_path_stats(
    graph: MultiGraph,
    num_sources: int | None = None,
    rng: random.Random | int | None = None,
    backend: str = "python",
) -> ShortestPathStats:
    """Compute l̄, {P(l)} and l_max on the graph's largest component.

    Parameters
    ----------
    graph:
        Any multigraph; reduced internally to its simple largest component.
    num_sources:
        ``None`` for exact all-pairs BFS; otherwise the number of uniformly
        sampled BFS sources (capped at the component size, in which case
        the result is exact anyway).
    rng:
        Source-sampling randomness (consumed identically on every backend).
    backend:
        ``"python"`` (scipy reference), or ``"csr"`` / ``"auto"``
        (bit-parallel BFS kernel).

    Returns
    -------
    ShortestPathStats
        Identical — bit for bit — across backends for a fixed seed.
    """
    from repro.engine import dispatch

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return _csr_stats(csr, num_sources, rng)

    lcc = largest_connected_component(simplified(graph))
    n = lcc.num_nodes
    if n <= 1:
        return ShortestPathStats(0.0, {}, 0, True, n)
    _, index = node_ordering(lcc)
    sources, exact = _select_sources(n, num_sources, rng)

    a = to_csr(lcc, index=index)
    dist = csgraph.shortest_path(a, method="D", unweighted=True, indices=sources)
    lengths = dist[np.isfinite(dist) & (dist > 0)].astype(np.int64)

    if lengths.size == 0:
        return ShortestPathStats(0.0, {}, 0, exact, len(sources))

    average, distribution, diameter = _stats_from_counts(np.bincount(lengths))

    if not exact:
        diameter = _double_sweep_diameter(a, dist, diameter)

    return ShortestPathStats(average, distribution, diameter, exact, len(sources))


def _stats_from_counts(
    counts: np.ndarray,
) -> tuple[float, dict[int, float], int]:
    """(l̄, {P(l)}, l_max) from a ``np.bincount`` of positive pair lengths.

    One aggregation path shared by both backends, so the bit-identical
    contract cannot drift: ``counts`` is integer-exact either way, and
    every division here sees the same operands.
    """
    total = (counts * np.arange(counts.size, dtype=np.int64)).sum()
    num_pairs = int(counts.sum())  # ordered (source, target) pairs
    distribution = {
        int(length): counts[length] / num_pairs
        for length in range(1, len(counts))
        if counts[length]
    }
    average = float(total / num_pairs)
    diameter = counts.size - 1  # bincount length = max finite distance + 1
    return average, distribution, diameter


def _select_sources(
    n: int, num_sources: int | None, rng: random.Random | int | None
) -> tuple[np.ndarray, bool]:
    """BFS sources over an ``n``-node component (rng consumed iff sampling)."""
    exact = num_sources is None or num_sources >= n
    if exact:
        return np.arange(n), True
    r = ensure_rng(rng)
    return np.asarray(r.sample(range(n), num_sources), dtype=np.int64), False


def _csr_stats(
    snapshot: CSRGraph,
    num_sources: int | None,
    rng: random.Random | int | None,
) -> ShortestPathStats:
    """Bit-parallel twin of the scipy branch, same statistics bit for bit.

    The simplify + largest-component prologue runs vectorized on the
    engine (:func:`repro.engine.bfs_kernels.simplified_lcc_snapshot`),
    sharing one full-graph freeze and one component snapshot across the
    whole property suite.
    """
    from repro.engine import bfs_kernels

    csr = bfs_kernels.simplified_lcc_snapshot(snapshot)
    n = csr.num_nodes
    if n <= 1:
        return ShortestPathStats(0.0, {}, 0, True, n)
    sources, exact = _select_sources(n, num_sources, rng)
    counts, farthest = bfs_kernels.pair_length_histogram(
        csr, sources, track_farthest=not exact
    )
    if counts.size == 0:
        return ShortestPathStats(0.0, {}, 0, exact, len(sources))
    average, distribution, diameter = _stats_from_counts(counts)

    if not exact:
        _, ecc = bfs_kernels.eccentricity(csr, farthest)
        diameter = max(diameter, ecc)

    return ShortestPathStats(average, distribution, diameter, exact, len(sources))


def eccentricity_lower_bound(
    graph: MultiGraph,
    num_sweeps: int = 4,
    rng: random.Random | int | None = None,
    backend: str = "python",
) -> int:
    """Double-sweep diameter lower bound without computing full stats.

    Only the largest connected component of the simple projection is swept
    (BFS restarts stay inside the start node's component, so a smaller
    far-flung component can never inflate the bound).
    """
    from repro.engine import dispatch

    snapshot = dispatch.snapshot_for(graph, backend)
    if snapshot is not None:
        from repro.engine import bfs_kernels

        csr = bfs_kernels.simplified_lcc_snapshot(snapshot)
        if csr.num_nodes <= 1:
            return 0
        r = ensure_rng(rng)
        best = 0
        src = r.randrange(csr.num_nodes)
        for _ in range(num_sweeps):
            far, ecc = bfs_kernels.eccentricity(csr, src)
            best = max(best, ecc)
            src = far
        return best

    lcc = largest_connected_component(simplified(graph))
    if lcc.num_nodes <= 1:
        return 0
    _, index = node_ordering(lcc)
    r = ensure_rng(rng)
    best = 0
    src = r.randrange(lcc.num_nodes)

    a = to_csr(lcc, index=index)
    for _ in range(num_sweeps):
        dist = csgraph.shortest_path(a, method="D", unweighted=True, indices=[src])[0]
        finite = np.where(np.isfinite(dist))[0]
        far = finite[np.argmax(dist[finite])]
        best = max(best, int(dist[far]))
        src = int(far)
    return best


def _double_sweep_diameter(a, dist, current: int) -> int:
    """Tighten a sampled diameter estimate: BFS again from the farthest
    node reached by any sampled source and keep the larger eccentricity."""
    flat = np.where(np.isfinite(dist), dist, -1.0)
    _, far_idx = np.unravel_index(int(np.argmax(flat)), flat.shape)
    sweep = csgraph.shortest_path(a, method="D", unweighted=True, indices=[far_idx])[0]
    finite = sweep[np.isfinite(sweep)]
    if finite.size:
        current = max(current, int(finite.max()))
    return current
