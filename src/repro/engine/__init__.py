"""Array-backed compute engine: CSR snapshots, vectorized kernels, dispatch.

The engine is a parallel compute layer under the pure-Python reference
implementation:

* :mod:`repro.engine.csr` — :class:`CSRGraph` frozen snapshots
  (:func:`freeze` / :func:`thaw`) of :class:`~repro.graph.multigraph.MultiGraph`.
* :mod:`repro.engine.kernels` — numpy/scipy kernels: degree vector, joint
  degree matrix, triangle counts and clustering coefficients, neighbor
  connectivity, and edgewise shared partners.
* :mod:`repro.engine.bfs_kernels` — frontier-based BFS kernels: batched
  level-synchronous shortest-path sweeps and Brandes betweenness
  accumulation, replaying the reference floats bit for bit.
* :mod:`repro.engine.dispatch` — ``backend="auto" | "python" | "csr"``
  routing used by :mod:`repro.metrics`, the rewiring engine, and the
  experiment harness; ``auto`` runs every property kernel on the CSR
  kernels, and only rewiring keeps a size threshold.
* :mod:`repro.engine.store` — the snapshot store: a canonical flat-buffer
  byte layout for frozen snapshots, saved/loaded on disk (RAM or
  ``mmap``-backed out-of-core), streamed out-of-core by ``freeze_stream``,
  or published into shared memory (:class:`SharedSnapshot` / ``attach``)
  so worker processes map one copy instead of rebuilding.

Walks are not an engine kernel: every crawler, over a ``MultiGraph`` or a
snapshot alike, queries through :class:`repro.sampling.access.GraphAccess`.
"""

from repro.engine.bfs_kernels import (
    bfs_distance_block,
    brandes_scores,
    pair_length_histogram,
)
from repro.engine.csr import CSRGraph, freeze, thaw
from repro.engine.dispatch import (
    AUTO_KERNEL_THRESHOLDS,
    BACKENDS,
    ensure_csr,
    ensure_multigraph,
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
    "ensure_multigraph",
    "resolve_backend",
    "ensure_generator",
    "bfs_distance_block",
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
