"""Array-backed compute engine: CSR snapshots, vectorized kernels, backends.

The engine is a parallel compute layer under the pure-Python reference
implementation:

* :mod:`repro.engine.csr` — :class:`CSRGraph` frozen snapshots
  (:func:`freeze` / :func:`thaw`) of :class:`~repro.graph.multigraph.MultiGraph`.
* :mod:`repro.engine.kernels` — numpy/scipy kernels: degree vector, joint
  degree matrix, triangle counts and clustering coefficients, neighbor
  connectivity, and edgewise shared partners.
* :mod:`repro.engine.bfs_kernels` — BFS kernels: the bit-parallel
  multi-source shortest-path histogram (64 sources per machine word) and
  batched level-synchronous Brandes betweenness accumulation, replaying
  the reference floats bit for bit.
* :mod:`repro.engine.dispatch` — :func:`resolve_backend`, which turns
  ``backend="auto" | "python" | "csr"`` into a concrete backend, and the
  freeze cache behind :func:`ensure_csr`.  Each :mod:`repro.metrics`
  function and the rewiring engine call it once and then run their
  kernel or reference body themselves; ``auto`` runs every property
  kernel on CSR, and only rewiring keeps a size threshold.
* :mod:`repro.engine.store` — the snapshot store: a canonical flat-buffer
  byte layout for frozen snapshots, saved/loaded on disk (RAM or
  ``mmap``-backed out-of-core), streamed out-of-core by ``freeze_stream``,
  or published into shared memory (:class:`SharedSnapshot` / ``attach``)
  so worker processes map one copy instead of rebuilding.

Walks are not an engine kernel: every crawler, over a ``MultiGraph`` or a
snapshot alike, queries through :class:`repro.sampling.access.GraphAccess`.
"""

from repro.engine.bfs_kernels import brandes_scores, pair_length_histogram
from repro.engine.csr import CSRGraph, freeze, thaw
from repro.engine.dispatch import (
    AUTO_KERNEL_THRESHOLDS,
    BACKENDS,
    ensure_csr,
    resolve_backend,
)
from repro.engine.kernels import ensure_generator
from repro.engine.store import (
    SharedSnapshot,
    attach,
    detach,
    freeze_stream,
    load_snapshot,
    save_snapshot,
    snapshot_nbytes,
)

__all__ = [
    "CSRGraph",
    "freeze",
    "thaw",
    "AUTO_KERNEL_THRESHOLDS",
    "BACKENDS",
    "ensure_csr",
    "resolve_backend",
    "ensure_generator",
    "brandes_scores",
    "pair_length_histogram",
    "SharedSnapshot",
    "attach",
    "detach",
    "freeze_stream",
    "load_snapshot",
    "save_snapshot",
    "snapshot_nbytes",
]
