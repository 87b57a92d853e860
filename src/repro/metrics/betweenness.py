"""Betweenness centrality (Brandes) and the degree-dependent average b̄(k).

The paper's definition sums ``sigma_jk(i) / sigma_jk`` over *ordered* source
/ target pairs, which is exactly what Brandes' dependency accumulation
yields on an undirected graph when the conventional halving is skipped.

Exact mode runs Brandes from every node; sampled mode runs it from ``p``
uniform pivots and scales by ``n / p`` (Brandes–Pich pivot estimation),
which is what the harness uses on the larger graphs — the paper itself
resorts to parallel exact algorithms, noting the evaluation method "does
not affect the performance of each method".

Two backends (the ``backend`` keyword, default ``"python"``):

* ``python`` — per-pivot Brandes sweeps on a positional CSR adjacency
  (``indptr`` / ``indices`` int lists built once per call): node ids are
  dense ints, the BFS state lives in flat lists, and neighbor iteration
  walks a contiguous slice.  Neighbor order is the adjacency-dict
  insertion order, so sigma/dependency accumulation — and therefore every
  float in the result — is the historical behavior.
* ``csr`` — the frontier Brandes kernel in
  :mod:`repro.engine.bfs_kernels`: level-synchronous sweeps batched over
  many pivots at once, with the dependency accumulation ordered to replay
  the reference's additions exactly, so the scores are bit-identical for
  a fixed seed.  ``auto`` picks this kernel at every size.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from repro.graph.components import largest_connected_component
from repro.graph.multigraph import MultiGraph, Node
from repro.graph.simplify import simplified
from repro.utils.rng import ensure_rng


def betweenness_centrality(
    graph: MultiGraph,
    num_pivots: int | None = None,
    rng: random.Random | int | None = None,
    backend: str = "python",
) -> dict[Node, float]:
    """``{b_i}`` over the largest component of the simple projection.

    Parameters
    ----------
    graph:
        Any multigraph; reduced internally to its simple largest component.
    num_pivots:
        ``None`` computes the exact ordered-pair betweenness; otherwise the
        pivot-sampled estimate scaled to the full node count.
    rng:
        Pivot-sampling randomness (consumed identically on every backend).
    backend:
        ``"python"`` (reference sweeps), or ``"csr"`` / ``"auto"``
        (batched frontier kernel).  Scores are bit-identical across
        backends for a fixed seed.
    """
    from repro.engine import dispatch

    snapshot = dispatch.snapshot_for(graph, backend)
    if snapshot is not None:
        from repro.engine import bfs_kernels

        # vectorized prologue: the component snapshot's slot segments are
        # exactly the reference's positional adjacency (simple component,
        # one slot per distinct neighbor, in the same insertion order)
        csr = bfs_kernels.simplified_lcc_snapshot(snapshot)
        nodes = list(csr.node_list)
        n = len(nodes)
        if n <= 2:
            return {u: 0.0 for u in nodes}
        pivot_ids, scale = _select_pivots(nodes, csr.index, num_pivots, rng)
        scores = bfs_kernels.brandes_scores(
            csr, np.asarray(list(pivot_ids), dtype=np.int64)
        )
        acc = [float(b) for b in scores]
    else:
        lcc = largest_connected_component(simplified(graph))
        nodes = list(lcc.nodes())
        n = len(nodes)
        if n <= 2:
            return {u: 0.0 for u in nodes}
        index = {u: i for i, u in enumerate(nodes)}
        pivot_ids, scale = _select_pivots(nodes, index, num_pivots, rng)

        # positional CSR over the LCC (simplified: no loops, no parallels);
        # plain int lists, which the sweep's scalar reads are fastest on
        indptr = [0]
        indices: list[int] = []
        for u in nodes:
            for v in lcc.neighbors(u):
                if v != u:
                    indices.append(index[v])
            indptr.append(len(indices))

        acc = [0.0] * n
        for s in pivot_ids:
            _accumulate_from_source(indptr, indices, s, acc)

    if scale != 1.0:
        acc = [b * scale for b in acc]
    # ordered pairs (j, k) both directions: undirected Brandes already
    # accumulates each unordered pair once per source sweep; summing over
    # all sources counts (j, k) and (k, j) separately, matching the paper.
    return {u: acc[i] for i, u in enumerate(nodes)}


def _select_pivots(
    nodes: list[Node],
    index: dict[Node, int],
    num_pivots: int | None,
    rng: random.Random | int | None,
) -> tuple[list[int] | range, float]:
    """Pivot positions and the Brandes–Pich scale (rng consumed iff sampling)."""
    n = len(nodes)
    if num_pivots is None or num_pivots >= n:
        return range(n), 1.0
    r = ensure_rng(rng)
    return [index[u] for u in r.sample(nodes, num_pivots)], n / num_pivots


def degree_dependent_betweenness(
    graph: MultiGraph,
    num_pivots: int | None = None,
    rng: random.Random | int | None = None,
    backend: str = "python",
) -> dict[int, float]:
    """``{b̄(k)}``: mean betweenness of the degree-``k`` nodes.

    Degrees are taken in the full input graph (the property indexes nodes
    by their graph degree); nodes outside the largest component have
    betweenness 0 by convention.  ``backend`` is forwarded to
    :func:`betweenness_centrality`.
    """
    score = betweenness_centrality(
        graph, num_pivots=num_pivots, rng=rng, backend=backend
    )
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for u in graph.nodes():
        k = graph.degree(u)
        if k == 0:
            continue
        sums[k] = sums.get(k, 0.0) + score.get(u, 0.0)
        counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in counts}


def _accumulate_from_source(
    indptr: list[int], indices: list[int], s: int, score: list[float]
) -> None:
    """One Brandes sweep on the positional CSR adjacency.

    BFS DAG + reverse dependency accumulation, identical arithmetic to the
    historical dict version (same neighbor order, same addition order) —
    only the node keys are positional ints and the per-sweep state lives
    in flat lists.
    """
    n = len(indptr) - 1
    sigma = [0.0] * n
    dist = [-1] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    sigma[s] = 1.0
    dist[s] = 0
    order: list[int] = []
    queue: deque[int] = deque([s])
    while queue:
        u = queue.popleft()
        order.append(u)
        du1 = dist[u] + 1
        su = sigma[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = du1
                queue.append(v)
            if dist[v] == du1:
                sigma[v] += su
                preds[v].append(u)
    delta = [0.0] * n
    for v in reversed(order):
        coeff = (1.0 + delta[v]) / sigma[v]
        for u in preds[v]:
            delta[u] += sigma[u] * coeff
        if v != s:
            score[v] += delta[v]
