"""Backend dispatch: route structural computations to Python or CSR kernels.

Every function here accepts either a mutable :class:`MultiGraph` or a frozen
:class:`CSRGraph` plus a ``backend`` selector:

* ``"python"`` — the reference dict-of-dicts implementation in
  :mod:`repro.metrics`; always available, bit-for-bit the historical
  behavior.
* ``"csr"`` — the vectorized kernels in :mod:`repro.engine.kernels` on a
  frozen snapshot (frozen on demand, with caching — see below).
* ``"auto"`` — ``csr``.  Only the kernel named in
  :data:`AUTO_KERNEL_THRESHOLDS` compares a workload size against a
  threshold first; every property kernel resolves to ``csr`` at any size,
  because whole experiment cells run faster that way with byte-identical
  results.  The ``REPRO_BACKEND`` environment variable, when set to
  ``python`` or ``csr``, overrides ``auto`` (useful for A/B runs without
  threading a flag through every call site).

Freeze caching
--------------
``freeze`` is the engine's only Python pass over the adjacency, so it must
not run once per metric.  :func:`ensure_csr` keeps one snapshot per live
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

#: The kernels that ``auto`` still sends to ``python`` below a size
#: threshold; any kernel not named here resolves to ``csr``.  The one
#: entry, ``rewiring``, is keyed on the run's attempt budget (``rc x
#: |candidates|``, capped by ``max_attempts``), not on the graph: the CSR
#: core must pay back its construction and the window it re-derives after
#: every accepted swap.  The calibration in ``benchmarks/bench_core_ops.py``
#: has put the break-even anywhere from ~10k to ~100k attempts: it moves
#: with the share of attempts a climb accepts, and between reruns.
AUTO_KERNEL_THRESHOLDS: dict[str, int] = {"rewiring": 20_000}

_ENV_VAR = "REPRO_BACKEND"

_freeze_cache: "weakref.WeakKeyDictionary[MultiGraph, tuple[int, CSRGraph]]" = (
    weakref.WeakKeyDictionary()
)


def resolve_backend(
    backend: str = "auto", *, size: int | None = None, kernel: str | None = None
) -> str:
    """Resolve ``backend`` to a concrete ``"python"`` or ``"csr"``.

    ``auto`` resolves to ``csr`` unless ``kernel`` has an entry in
    :data:`AUTO_KERNEL_THRESHOLDS`; then ``size`` (the workload measure
    that entry is keyed on) must reach the threshold, and ``None`` means
    unknown and resolves to ``python``.
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
    threshold = AUTO_KERNEL_THRESHOLDS.get(kernel) if kernel else None
    if threshold is None or (size is not None and size >= threshold):
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


def _resolve_for(graph: MultiGraph | CSRGraph, backend: str) -> str:
    if backend == "auto" and isinstance(graph, CSRGraph):
        # a snapshot in hand makes csr free; only an explicit "python" thaws
        return "csr"
    return resolve_backend(backend)


# ----------------------------------------------------------------------
# dispatched computations
# ----------------------------------------------------------------------
def degree_vector(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, int]:
    """``{n(k)}`` over ``k >= 1`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.degree_vector(ensure_csr(graph))
    from repro.metrics import basic

    return basic.degree_vector(ensure_multigraph(graph))


def degree_distribution(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{P(k)}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.degree_distribution(ensure_csr(graph))
    from repro.metrics import basic

    return basic.degree_distribution(ensure_multigraph(graph))


def joint_degree_matrix(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[DegreePair, int]:
    """``{m(k,k')}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.joint_degree_matrix(ensure_csr(graph))
    from repro.metrics import basic

    return basic.joint_degree_matrix(ensure_multigraph(graph))


def joint_degree_distribution(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[DegreePair, float]:
    """``{P(k,k')}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.joint_degree_distribution(ensure_csr(graph))
    from repro.metrics import basic

    return basic.joint_degree_distribution(ensure_multigraph(graph))


def triangles_per_node(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[Node, float]:
    """``{t_i}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.triangles_per_node(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.triangles_per_node(ensure_multigraph(graph))


def network_clustering(graph: MultiGraph | CSRGraph, backend: str = "auto") -> float:
    """``c̄`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.network_clustering(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.network_clustering(ensure_multigraph(graph))


def degree_dependent_clustering(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{c̄(k)}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.degree_dependent_clustering(ensure_csr(graph))
    from repro.metrics import clustering

    return clustering.degree_dependent_clustering(ensure_multigraph(graph))


def neighbor_connectivity(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{k̄nn(k)}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
        return kernels.neighbor_connectivity(ensure_csr(graph))
    from repro.metrics import basic

    return basic.neighbor_connectivity(ensure_multigraph(graph))


def shared_partner_distribution(
    graph: MultiGraph | CSRGraph, backend: str = "auto"
) -> dict[int, float]:
    """``{P(s)}`` on the selected backend."""
    if _resolve_for(graph, backend) == "csr":
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

    if _resolve_for(graph, backend) == "csr":
        csr = ensure_csr(graph)
        if csr.num_nodes == 0 or csr.num_edges == 0:
            return 0.0
        return spectral.matrix_largest_eigenvalue(csr.adjacency_matrix(), tol=tol)
    return spectral.largest_eigenvalue(ensure_multigraph(graph), tol=tol)
