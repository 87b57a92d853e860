"""Backend dispatch: route structural computations to Python or CSR kernels.

Every function here accepts either a mutable :class:`MultiGraph` or a frozen
:class:`CSRGraph` plus a ``backend`` selector:

* ``"python"`` — the reference dict-of-dicts implementation in
  :mod:`repro.metrics`; always available, bit-for-bit the historical
  behavior.
* ``"csr"`` — the vectorized kernels in :mod:`repro.engine.kernels` on a
  frozen snapshot (frozen on demand, with caching — see below).
* ``"auto"`` — ``csr`` when the workload is large enough to amortize the
  freeze (``num_edges >= AUTO_EDGE_THRESHOLD``) or when the input is
  already a snapshot; ``python`` otherwise.  The ``REPRO_BACKEND``
  environment variable, when set to ``python`` or ``csr``, overrides the
  size heuristic (useful for A/B runs without threading a flag through
  every call site).

Freeze caching
--------------
``freeze`` is the engine's only per-edge Python loop, so it must not run
once per metric.  :func:`ensure_csr` keeps one snapshot per live
``MultiGraph`` in a :class:`weakref.WeakKeyDictionary`, keyed alongside the
graph's mutation :attr:`~repro.graph.multigraph.MultiGraph.version`; any
structural change invalidates the entry, so a rewired graph is never served
a stale snapshot.
"""

from __future__ import annotations

import os
import weakref

from repro.engine import kernels
from repro.engine.csr import CSRGraph, freeze, thaw
from repro.errors import EngineError
from repro.graph.multigraph import MultiGraph, Node

DegreePair = tuple[int, int]

BACKENDS: tuple[str, ...] = ("auto", "python", "csr")

#: Default edge count at which ``auto`` switches to the CSR kernels.  Below
#: it the freeze cost dominates the kernel win; above it the vectorized path
#: pays for itself within a single metric evaluation.  Used for any kernel
#: without a calibrated entry in :data:`AUTO_KERNEL_THRESHOLDS`.
AUTO_EDGE_THRESHOLD = 20_000

#: Per-kernel break-even sizes, measured by
#: ``benchmarks/bench_core_ops.py::test_bench_auto_threshold_calibration``
#: (results committed under ``benchmarks/results/bench_core_ops_thresholds``)
#: and rounded to one significant figure.  Sizes are edge counts, except
#: for ``rewiring``, whose size is the run's attempt budget
#: (``rc x |candidates|``, capped by ``max_attempts``): its work scales
#: with the budget, not the graph.  The freeze amortizes very
#: differently per kernel: the JDM kernel beats the dict path almost
#: immediately, as do neighbor connectivity, shared partners, λ1, and the
#: BFS-based shortest-path/betweenness pair (whose python sides pay a
#: per-edge simplify/component prologue every call that the engine serves
#: from the snapshot's caches); triangle counting and the clustering
#: aggregates must pay the scipy matrix products; a rewiring run must pay
#: back engine construction (freeze, triangle kernel, candidate arrays)
#: and the window it re-derives after every accepted swap before its
#: batched windows win (the python core won every calibrated run below
#: ~10 000 attempts; the CSR core broke even at ~10k-20k attempts at
#: rc 1 and 50, at 50k-100k at rc 5-10, whose climbs accept a larger
#: share of their attempts); the pure dict degree count is memory-light
#: enough that the freeze share only pays off beyond the calibrated range;
#: and few-walker batched walks pay a fresh freeze per cell in the cost
#: model, so only large graphs route there automatically — though the
#: vectorized visited-matrix accounting narrowed the top-of-range gap
#: from ~6x to ~4x, which is what moved the extrapolated break-even down.
AUTO_KERNEL_THRESHOLDS: dict[str, int] = {
    "degree": 100_000,
    "jdm": 500,
    "triangles": 1_000,
    "clustering": 1_000,
    "knn": 500,
    "shared_partners": 500,
    "spectral": 500,
    "paths": 500,
    "betweenness": 500,
    "walks": 100_000,
    "rewiring": 20_000,
}

_ENV_VAR = "REPRO_BACKEND"

_freeze_cache: "weakref.WeakKeyDictionary[MultiGraph, tuple[int, CSRGraph]]" = (
    weakref.WeakKeyDictionary()
)


def resolve_backend(
    backend: str = "auto", *, size: int | None = None, kernel: str | None = None
) -> str:
    """Resolve ``backend`` to a concrete ``"python"`` or ``"csr"``.

    ``size`` is the workload measure compared against the calibrated
    break-even for ``kernel`` (edge count for graph kernels, walk length
    for sequence kernels, the attempt budget for ``rewiring``); ``None``
    means unknown and resolves to ``python``.  ``kernel`` selects a
    per-kernel threshold from :data:`AUTO_KERNEL_THRESHOLDS`; unknown or
    ``None`` kernels fall back to :data:`AUTO_EDGE_THRESHOLD`.
    """
    if backend not in BACKENDS:
        raise EngineError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend != "auto":
        return backend
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env in ("python", "csr"):
        return env
    if env and env != "auto":
        raise EngineError(
            f"invalid {_ENV_VAR}={env!r}; expected 'auto', 'python', or 'csr'"
        )
    threshold = AUTO_KERNEL_THRESHOLDS.get(kernel, AUTO_EDGE_THRESHOLD)
    if size is not None and size >= threshold:
        return "csr"
    return "python"


def ensure_csr(graph: MultiGraph | CSRGraph) -> CSRGraph:
    """Snapshot of ``graph`` (cached per graph identity and version).

    Parameters
    ----------
    graph:
        A mutable graph (frozen on demand) or an existing snapshot
        (returned as-is).

    Returns
    -------
    CSRGraph
        The weak-key cache holds one snapshot per live ``MultiGraph``,
        keyed alongside its mutation ``version``; any structural change
        invalidates the entry, so a rewired graph is never served a stale
        snapshot.  Derived caches (adjacency matrix, triangle counts, the
        simplified-LCC sub-snapshot) ride on the returned object.
    """
    if isinstance(graph, CSRGraph):
        return graph
    version = graph.version
    cached = _freeze_cache.get(graph)
    if cached is not None and cached[0] == version:
        return cached[1]
    csr = freeze(graph)
    _freeze_cache[graph] = (version, csr)
    return csr


def ensure_multigraph(graph: MultiGraph | CSRGraph) -> MultiGraph:
    """Mutable view of ``graph`` (thawed when given a snapshot).

    Returns
    -------
    MultiGraph
        The input itself when already mutable; otherwise a fresh thaw —
        structurally identical, but *not* identity-linked to the snapshot
        (mutations do not propagate back).
    """
    if isinstance(graph, CSRGraph):
        return thaw(graph)
    return graph


def _resolve_for(
    graph: MultiGraph | CSRGraph, backend: str, kernel: str | None = None
) -> str:
    if backend not in BACKENDS:
        raise EngineError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if isinstance(graph, CSRGraph):
        # a snapshot in hand makes csr free; only an explicit "python" thaws
        return "csr" if backend == "auto" else backend
    return resolve_backend(backend, size=graph.num_edges, kernel=kernel)


# ----------------------------------------------------------------------
# dispatched computations
# ----------------------------------------------------------------------
def degree_vector(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, int]:
    """``{n(k)}`` over ``k >= 1`` on the selected backend."""
    if _resolve_for(graph, backend, "degree") == "csr":
        return kernels.degree_vector(ensure_csr(graph))
    from repro.metrics import basic

    return basic.degree_vector(ensure_multigraph(graph))


def degree_distribution(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{P(k)}`` on the selected backend."""
    if _resolve_for(graph, backend, "degree") == "csr":
        return kernels.degree_distribution(ensure_csr(graph))
    from repro.metrics import basic

    return basic.degree_distribution(ensure_multigraph(graph))


def joint_degree_matrix(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[DegreePair, int]:
    """``{m(k,k')}`` on the selected backend."""
    if _resolve_for(graph, backend, "jdm") == "csr":
        return kernels.joint_degree_matrix(ensure_csr(graph))
    from repro.metrics import basic

    return basic.joint_degree_matrix(ensure_multigraph(graph))


def joint_degree_distribution(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[DegreePair, float]:
    """``{P(k,k')}`` on the selected backend."""
    if _resolve_for(graph, backend, "jdm") == "csr":
        return kernels.joint_degree_distribution(ensure_csr(graph))
    from repro.metrics import basic

    return basic.joint_degree_distribution(ensure_multigraph(graph))


def triangles_per_node(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[Node, float]:
    """``{t_i}`` on the selected backend."""
    if _resolve_for(graph, backend, "triangles") == "csr":
        return kernels.triangles_per_node(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.triangles_per_node(ensure_multigraph(graph))


def network_clustering(graph: MultiGraph | CSRGraph, backend: str = "auto") -> float:
    """``c̄`` on the selected backend."""
    if _resolve_for(graph, backend, "clustering") == "csr":
        return kernels.network_clustering(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.network_clustering(ensure_multigraph(graph))


def degree_dependent_clustering(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{c̄(k)}`` on the selected backend."""
    if _resolve_for(graph, backend, "clustering") == "csr":
        return kernels.degree_dependent_clustering(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.degree_dependent_clustering(ensure_multigraph(graph))


def neighbor_connectivity(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{k̄nn(k)}`` on the selected backend."""
    if _resolve_for(graph, backend, "knn") == "csr":
        return kernels.neighbor_connectivity(ensure_csr(graph))
    from repro.metrics import basic

    return basic.neighbor_connectivity(ensure_multigraph(graph))


def shared_partner_distribution(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{P(s)}`` on the selected backend."""
    if _resolve_for(graph, backend, "shared_partners") == "csr":
        return kernels.shared_partner_distribution(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.shared_partner_distribution(ensure_multigraph(graph))


def largest_eigenvalue(
    graph: MultiGraph | CSRGraph, tol: float = 1e-8, backend: str = "auto"
) -> float:
    """λ1 on the selected backend.

    Both backends run :func:`repro.metrics.spectral.matrix_largest_eigenvalue`
    on byte-identical adjacency matrices — the CSR path only swaps the
    per-edge Python matrix construction for the snapshot's cached
    vectorized build.
    """
    from repro.metrics import spectral

    if _resolve_for(graph, backend, "spectral") == "csr":
        csr = ensure_csr(graph)
        if csr.num_nodes == 0 or csr.num_edges == 0:
            return 0.0
        return spectral.matrix_largest_eigenvalue(csr.adjacency_matrix(), tol=tol)
    return spectral.largest_eigenvalue(ensure_multigraph(graph), tol=tol)
