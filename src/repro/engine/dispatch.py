"""Backend selection and the freeze cache behind every CSR kernel call.

Each structural property picks its backend once, in its own
:mod:`repro.metrics` function, with the same switch::

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.X(csr)

* ``"python"`` — the reference dict-of-dicts implementation in
  :mod:`repro.metrics`; always available, bit-for-bit the historical
  behavior.  It takes a ``MultiGraph`` only.
* ``"csr"`` — the vectorized kernels in :mod:`repro.engine.kernels` and
  :mod:`repro.engine.bfs_kernels` on a frozen snapshot (frozen on demand,
  with caching — see below).
* ``"auto"`` — ``csr``.  Only the kernel named in
  :data:`AUTO_KERNEL_THRESHOLDS` compares a workload size against a
  threshold first; every property kernel resolves to ``csr`` at any size,
  because whole experiment cells run faster that way with byte-identical
  results.

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

import weakref

from repro.engine.csr import CSRGraph, freeze
from repro.errors import EngineError
from repro.graph.multigraph import MultiGraph

BACKENDS: tuple[str, ...] = ("auto", "python", "csr")

#: The kernels that ``auto`` still sends to ``python`` below a size
#: threshold; any kernel not named here resolves to ``csr``.  The one
#: entry, ``rewiring``, is keyed on the run's attempt budget (``rc x
#: |candidates|``, capped by ``max_attempts``), not on the graph: the CSR
#: core must pay back its construction and, after every accepted swap, the
#: scalar replay of each window row that swap made stale.  The calibration
#: in ``benchmarks/bench_core_ops.py`` has put the break-even anywhere from
#: ~10k to ~100k attempts: it moves with the share of attempts a climb
#: accepts, and between reruns.
AUTO_KERNEL_THRESHOLDS: dict[str, int] = {"rewiring": 20_000}

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
    threshold = AUTO_KERNEL_THRESHOLDS.get(kernel) if kernel else None
    if threshold is None or (size is not None and size >= threshold):
        return "csr"
    return "python"


def snapshot_for(graph: MultiGraph | CSRGraph, backend: str) -> CSRGraph | None:
    """The snapshot a property runs its CSR kernel on, or ``None`` when its
    reference body should run.

    An explicit ``"python"`` makes no decision; any other backend makes
    exactly one :func:`resolve_backend` call.  The reference bodies take a
    ``MultiGraph`` only, so a ``CSRGraph`` headed for one raises
    :class:`~repro.errors.EngineError` naming the backend.
    """
    if backend != "python" and resolve_backend(backend) == "csr":
        return ensure_csr(graph)
    if isinstance(graph, CSRGraph):
        raise EngineError(
            f"backend {backend!r} runs the reference implementation, which "
            "needs a MultiGraph, not a CSRGraph snapshot"
        )
    return None


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
