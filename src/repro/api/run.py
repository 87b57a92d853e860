"""The one place cells meet executors: a single queue of run work-items.

``tables``, ``figures``, and ``sweeps`` all reduce to the same step: a
list of materialized :class:`~repro.experiments.runner.ExperimentConfig`
cells goes to the context's executor and aggregates stream back in cell
order.  :func:`map_cells` is that step.

The work-item is one run: cells × runs flatten into one deterministic
queue of :func:`~repro.experiments.runner.execute_run` items, so even a
single cell (the Table V shape) saturates every worker.  Each worker
process evaluates a cell's truth PropertySet once (per-process memo) and
the records are regrouped per cell in pre-spawned seed order.  Results
arrive lazily in cell order and the deterministic aggregates are
bit-identical to the serial loop on fixed seeds — the order of float
reductions never depends on who executed which item.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

from repro.api.distributed import SocketTransport
from repro.api.scheduler import LocalPoolTransport, Scheduler
from repro.errors import ExperimentError
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentConfig,
    MethodAggregate,
    RunRecord,
    aggregate_records,
    execute_run_with_stats,
    record_worker_truth_stats,
)

if TYPE_CHECKING:
    from repro.api.context import RunContext
    from repro.api.workers import DatasetPublication

_T = TypeVar("_T")
_R = TypeVar("_R")


class SerialExecutor:
    """In-process reference executor: a plain streaming loop."""

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        for item in items:
            yield fn(item)


def executor_for(
    context: "RunContext",
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
) -> Scheduler | SerialExecutor:
    """The order-preserving executor a :class:`~repro.api.context.RunContext`
    asks for.

    A ``workers`` address list selects the distributed tier, one slot per
    agent, with each item tried up to three times so a sweep that still
    has a surviving agent never fails on one lost agent.  Otherwise
    ``jobs`` selects the serial loop or a local process pool.
    ``initializer``/``initargs`` apply only to the local pool — remote
    agents are separate interpreters on (possibly) other hosts, so
    per-host worker setup like shared-memory attachment cannot apply to
    them.
    """
    if context.workers:
        return Scheduler(SocketTransport(context.workers), max_attempts=3)
    if context.jobs <= 1:
        return SerialExecutor()
    return Scheduler(LocalPoolTransport(context.jobs, initializer, initargs))


def map_cells(
    cells: Sequence[ExperimentConfig], context: "RunContext"
) -> Iterator[dict[str, MethodAggregate]]:
    """Run ``cells`` on the context's executor; yield aggregates in order.

    Cells carry dataset names, not graphs; each executor worker builds a
    dataset, its read-only CSR snapshot, and its truth PropertySet once,
    on first touch (the registry, freeze cache, and truth memo all
    memoize per process).  Yields lazily, so callers can checkpoint after
    each completed cell.

    The queue order is (cell 0 run 0, cell 0 run 1, …, cell 1 run 0, …)
    with run seeds pre-spawned from each cell's seed — the same sequence
    the serial loop walks — and the executor yields in submission order,
    so regrouping ``runs`` consecutive records per cell reproduces the
    serial aggregation operand for operand.  Every cell is configured
    here, so items carry no context and no worker can open a nested pool
    or coordinator.

    A pooled run first publishes each distinct dataset's frozen snapshot
    into shared memory and computes each distinct evaluation's truth
    once, parent-side (:func:`repro.api.workers.publish_cells`); the pool
    initializer attaches workers zero-copy.  Publication happens here,
    before the first result is asked for, and lives until the result
    iterator is exhausted (or abandoned); when shared memory is
    unavailable it falls away silently and each worker rebuilds its
    datasets, bit-identically.  Shared memory is per-host, so a
    distributed run (``context.workers``) never publishes: remote agents
    rebuild through their own per-process name-keyed caches, which is
    bit-identical by contract.
    """
    from repro.api.context import spawn_seeds

    configured = [context.configure(config) for config in cells]
    for config in configured:
        if config.runs < 1:
            raise ExperimentError("need at least one run")
    items = [
        (config, run_seed)
        for config in configured
        for run_seed in spawn_seeds(config.seed, config.runs)
    ]
    pooled = context.parallelism > 1
    publication = None
    if pooled and context.workers is None:
        from repro.api.workers import pool_worker_init, publish_cells

        publication = publish_cells(configured)
    if publication is not None:
        executor = executor_for(
            context, pool_worker_init, (None, publication.descriptors)
        )
    else:
        executor = executor_for(context)
    records: Iterator[RunRecord]
    if pooled:
        # workers run in their own processes, so each item also reports
        # its truth-memo counter delta for the parent's merged stats view
        records = _merge_worker_stats(executor.map(execute_run_with_stats, items))
    else:
        # through the module at call time, as run_experiment's loop and
        # the workers' execute_run_with_stats resolve it
        records = executor.map(runner.execute_run, items)
    return _regroup(configured, records, publication)


def _regroup(
    configured: list[ExperimentConfig],
    records: Iterator[RunRecord],
    publication: "DatasetPublication | None",
) -> Iterator[dict[str, MethodAggregate]]:
    """Fold each cell's ``runs`` consecutive records into its aggregates,
    unlinking the publication when the iterator finishes or is abandoned
    (generator close runs the finally; attached workers keep their
    mappings until they exit)."""
    try:
        for config in configured:
            yield aggregate_records(config, [next(records) for _ in range(config.runs)])
    finally:
        if publication is not None:
            publication.close()


def _merge_worker_stats(results: Iterator[tuple[_T, Any]]) -> Iterator[_T]:
    """Unwrap ``(result, truth-stats delta)`` pairs from pooled workers,
    folding each delta into the parent's merged counters as it arrives."""
    for result, delta in results:
        record_worker_truth_stats(delta)
        yield result
