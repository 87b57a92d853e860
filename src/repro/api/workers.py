"""Shared-memory dataset publication and the one pool-worker initializer.

Pool workers used to pay a cold start per process: rebuild the dataset
stand-in, freeze it to CSR, and run the 12-property exact evaluation —
all before executing their first work-item.  This module moves that cost
to the parent, once:

* :func:`publish_cells` loads each distinct ``(dataset, scale)`` a cell
  list touches, publishes its frozen CSR snapshot into
  :class:`multiprocessing.shared_memory` through the snapshot store
  (:mod:`repro.engine.store`), and computes each distinct evaluation's
  truth :class:`~repro.metrics.suite.PropertySet` on the canonical
  (mutable-graph) path.  The result is a :class:`DatasetPublication`
  whose picklable :attr:`~DatasetPublication.descriptors` travel to the
  workers as initializer arguments.
* :func:`pool_worker_init` runs in every worker process: it applies the
  truth-memo bound (the one init path the experiment executors and the
  service share) and attaches each published snapshot zero-copy,
  registering it with the runner so work-items resolve their crawl graph
  and truth without rebuilding anything.

Publication is strictly an optimization: if shared memory is unavailable
(``/dev/shm`` too small, exotic platforms) the parent falls back to
shipping nothing and the workers rebuild per process exactly as before —
results are bit-identical either way, which is the contract the parallel
executors are built on.

Publication is also strictly *per-host*: POSIX shared memory cannot
cross machines, so distributed runs (``RunContext.workers``) skip it
entirely and remote ``repro worker`` agents rebuild through the same
per-process caches — the rebuild path above, which is why the contract
holds unchanged over sockets.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import StoreError
from repro.experiments.runner import (
    cell_truth,
    install_shared_dataset,
    set_truth_cache_limit,
)

if TYPE_CHECKING:
    from repro.engine.store import SharedSnapshot
    from repro.experiments.runner import ExperimentConfig
    from repro.metrics.suite import EvaluationConfig, PropertySet


@dataclass(frozen=True)
class SharedDataset:
    """Picklable recipe for one published dataset snapshot.

    ``segment`` names the shared-memory segment a worker attaches;
    ``truths`` carries the parent-computed exact PropertySets, one per
    distinct evaluation config the cells use (empty for service
    publication, where request shapes are not known up front).
    """

    dataset: str
    scale: float
    segment: str
    truths: "tuple[tuple[EvaluationConfig, PropertySet], ...]" = ()


class DatasetPublication:
    """Owner handle for a batch of published snapshots.

    The parent keeps this alive while the pool runs (workers attach
    during pool initialization) and closes it when the last result has
    been consumed; closing unlinks the segments, after which the kernel
    reclaims the memory as attached workers exit.
    """

    def __init__(
        self,
        snapshots: "Iterable[SharedSnapshot]",
        descriptors: "tuple[SharedDataset, ...]",
    ) -> None:
        self._snapshots: "tuple[SharedSnapshot, ...]" = tuple(snapshots)
        self.descriptors = descriptors

    @property
    def nbytes(self) -> int:
        """Total bytes published across all segments."""
        return sum(snap.nbytes for snap in self._snapshots)

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        for snap in self._snapshots:
            snap.close()
        self._snapshots = ()

    def __enter__(self) -> "DatasetPublication":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def publish_cells(
    cells: "Iterable[ExperimentConfig]",
) -> DatasetPublication | None:
    """Publish every distinct dataset a configured cell list touches.

    For each ``(dataset, scale)`` group the parent loads the stand-in,
    freezes it once (through the engine's per-graph cache), publishes the
    snapshot, and computes the truth PropertySet for each distinct
    evaluation config in the group — so the whole pool pays dataset
    construction, freeze, and exact evaluation exactly once, not once per
    worker process.  Returns ``None`` when shared memory is unusable;
    callers then run the legacy rebuild-per-worker path.
    """
    groups: "dict[tuple[str, float], list[ExperimentConfig]]" = {}
    for config in cells:
        groups.setdefault((config.dataset, config.scale), []).append(config)
    return _publish(groups)


def publish_datasets(
    targets: "Sequence[tuple[str, float]]",
) -> DatasetPublication | None:
    """Publish named ``(dataset, scale)`` snapshots, graphs only.

    The service uses this at startup: request evaluation shapes are not
    known up front, so no truths are shipped — workers crawl the shared
    snapshot and compute truth on the canonical path on first need.
    """
    return _publish(dict.fromkeys(targets, ()))


def _publish(
    groups: "Mapping[tuple[str, float], Sequence[ExperimentConfig]]",
) -> DatasetPublication | None:
    """Publish each ``(dataset, scale)`` group in order, with the truth of
    each distinct evaluation among its configs; ``None`` when there is
    nothing to publish or shared memory is unusable."""
    if not groups:
        return None
    from repro.engine.dispatch import ensure_csr
    from repro.engine.store import SharedSnapshot
    from repro.graph.datasets import load_dataset

    snapshots: "list[SharedSnapshot]" = []
    descriptors: list[SharedDataset] = []
    try:
        for (dataset, scale), configs in groups.items():
            graph = load_dataset(dataset, scale=scale)
            snap = SharedSnapshot.create(ensure_csr(graph))
            snapshots.append(snap)
            truths: "dict[EvaluationConfig, PropertySet]" = {}
            for config in configs:
                evaluation = config.evaluation_config()
                if evaluation not in truths:
                    truths[evaluation] = cell_truth(config, graph)
            descriptors.append(
                SharedDataset(dataset, scale, snap.name, tuple(truths.items()))
            )
    except (OSError, StoreError):
        for snap in snapshots:
            snap.close()
        return None
    return DatasetPublication(snapshots, tuple(descriptors))


def pool_worker_init(
    truth_cache_limit: int | None = None,
    shared: "Sequence[SharedDataset]" = (),
) -> None:
    """The one worker-process initializer every pool routes through.

    Applies the truth-memo LRU bound uniformly (the experiment executors
    pass ``None`` — unbounded, a sweep touches a handful of datasets —
    while the long-running service passes its configured bound), then
    attaches each published snapshot and registers it with the runner.
    A segment that vanished between publication and worker start is
    skipped, not fatal: the worker simply rebuilds per process.
    """
    set_truth_cache_limit(truth_cache_limit)
    if not shared:
        return
    from repro.engine.store import attach

    for spec in shared:
        try:
            graph = attach(spec.segment)
        except StoreError:
            continue
        install_shared_dataset(spec.dataset, spec.scale, graph, spec.truths)
