"""Experiment cells: repeated fair-comparison runs with aggregation.

One :func:`run_experiment` call reproduces one (dataset, fraction) cell of
the paper's evaluation: ``runs`` independent rounds, per-property L1
distances averaged over rounds, and the paper's headline ``avg ± sd over
the 12 properties`` computed on those averaged distances.  Generation
times are averaged over rounds as well (Table IV / V).

Seeding: every round draws its generator from a seed *spawned* from the
cell seed (:func:`repro.api.context.spawn_seeds`), so a cell's outcome is
a pure function of its :class:`ExperimentConfig` — rounds never share a
generator stream.  That is the property the executor layer
(:mod:`repro.api.executors`) relies on for serial↔parallel bit-identity.

A cell decomposes into picklable *run* work-items: :func:`execute_run`
performs one round (one ``run_methods_once`` + property evaluation) and
returns a :class:`RunRecord`; :func:`aggregate_records` folds the records
back into the cell's :class:`MethodAggregate` map in pre-spawned seed
order.  The cell's truth :class:`~repro.metrics.suite.PropertySet` is
memoized per process on ``(dataset, scale, evaluation)`` — alongside the
dataset and CSR-freeze caches — so a worker executing several runs (or
several fractions) of one dataset computes the 12 exact properties once.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ExperimentError
from repro.graph.datasets import load_dataset
from repro.graph.multigraph import MultiGraph
from repro.metrics.suite import (
    PROPERTY_NAMES,
    EvaluationConfig,
    PropertySet,
    compute_properties,
    l1_distances,
)
from repro.experiments.methods import (
    METHOD_NAMES,
    run_methods_once,
)
from repro.sampling.faults import FaultPolicy, spawn_fault_seed
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean, pstdev

if TYPE_CHECKING:
    from repro.api.context import RunContext


@dataclass(frozen=True)
class ExperimentConfig:
    """One (dataset, fraction) experiment cell.

    ``scale`` shrinks the dataset stand-in (benches use < 1 to bound sweep
    time); ``rc`` is the rewiring coefficient shared by both generative
    methods; ``evaluation`` controls exact-vs-sampled global metrics.
    ``backend`` (``"auto" | "python" | "csr"``), when set, overrides the
    evaluation config's compute backend for every property evaluation in
    the cell *and* selects the generative methods' rewiring backend; a
    ``None`` backend is filled in from the :class:`~repro.api.RunContext`
    the cell runs under.  ``fault_policy`` selects the crawl regime
    (:mod:`repro.sampling.faults`): ``None`` is ideal crawling *and*
    lets the RunContext fill in its own policy; pin an explicit
    ``FaultPolicy()`` (the null policy) to force ideal crawling under a
    faulty context.  The truth PropertySet is always evaluated on the
    clean hidden graph — faults degrade only what the crawlers see.
    """

    dataset: str
    fraction: float = 0.10
    runs: int = 10
    methods: tuple[str, ...] = METHOD_NAMES
    rc: float = 50.0
    scale: float = 1.0
    seed: int = 1
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    max_rewiring_attempts: int | None = None
    backend: str | None = None
    fault_policy: FaultPolicy | None = None

    def evaluation_config(self) -> EvaluationConfig:
        """The evaluation config with any ``backend`` override applied."""
        if self.backend is None or self.backend == self.evaluation.backend:
            return self.evaluation
        return replace(self.evaluation, backend=self.backend)


@dataclass
class MethodAggregate:
    """Aggregated outcome of one method over all runs of a cell."""

    method: str
    per_property: dict[str, float]  # mean L1 per property over runs
    average_l1: float  # mean over the 12 per-property means
    std_l1: float  # sd over the 12 per-property means (the paper's +/-)
    total_seconds: float  # mean generation time
    rewiring_seconds: float  # mean rewiring time

    def row(self) -> list[float]:
        """Per-property means in canonical order (table formatting)."""
        return [self.per_property[name] for name in PROPERTY_NAMES]


@dataclass(frozen=True)
class RunRecord:
    """One run's per-method outcome: the result of one run work-item.

    ``distances`` maps ``method -> {property: L1}``; the timing maps hold
    that run's generation wall-clocks.  A cell is ``runs`` of these in
    pre-spawned seed order (:func:`aggregate_records`).
    """

    distances: dict[str, dict[str, float]]
    total_seconds: dict[str, float]
    rewiring_seconds: dict[str, float]


# Per-process truth memo: the 12 exact properties of an original graph
# depend only on (dataset, scale, evaluation) — not on the crawl fraction
# or the run seed — so every run (and every fraction) of a dataset a
# worker process executes shares one PropertySet.  Lives alongside the
# dataset registry and CSR freeze caches, which memoize per process the
# same way.  Insertion/access order is maintained so a long-running
# process (the :mod:`repro.service` server) can bound it LRU-style via
# :func:`set_truth_cache_limit`; harness runs keep it unbounded.
_TRUTH_MEMO: OrderedDict[tuple[str, float, EvaluationConfig], PropertySet] = (
    OrderedDict()
)
_TRUTH_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_TRUTH_LIMIT: int | None = None

# Deltas merged back from pool workers (see truth_stats_delta): each
# worker's counters live in *its* process, so without this the parent's
# truth_cache_stats() would read all-zero under jobs > 1 and any
# cache-hit metric built on it would lie.
_POOL_TRUTH_STATS = {"hits": 0, "misses": 0, "evictions": 0}

# Shared-memory dataset snapshots installed into this process by the pool
# initializer (:func:`repro.api.workers.pool_worker_init`): zero-copy
# read-only CSR graphs keyed like the dataset registry.  When a work-item
# names one, :func:`_materialize_cell` serves the crawl graph from here
# instead of rebuilding dataset + freeze in every worker.  Values are
# CSRGraphs but typed loosely to keep this module's import graph free of
# the engine.
_SHARED_DATASETS: dict[tuple[str, float], object] = {}


def install_shared_dataset(
    dataset: str,
    scale: float,
    graph: object,
    truths: "tuple[tuple[EvaluationConfig, PropertySet], ...]" = (),
) -> None:
    """Register an attached shared-memory snapshot (and pre-seed truths).

    Called by the pool-worker initializer with the graph it attached and
    the truth PropertySets the parent computed; later work-items naming
    ``(dataset, scale)`` crawl the shared graph and find their truth in
    the memo (counted as hits — the memo *was* pre-populated, the exact
    evaluation genuinely ran only once, parent-side).
    """
    _SHARED_DATASETS[(dataset, scale)] = graph
    for evaluation, truth in truths:
        _TRUTH_MEMO[(dataset, scale, evaluation)] = truth
        _TRUTH_MEMO.move_to_end((dataset, scale, evaluation))
    _evict_to_limit()


def shared_dataset_graph(dataset: str, scale: float):
    """The shared snapshot installed for ``(dataset, scale)``, if any."""
    return _SHARED_DATASETS.get((dataset, scale))


def clear_shared_datasets() -> None:
    """Forget installed shared snapshots (tests; the registry holds no
    shared-memory resources itself — attachments are refcounted by the
    store and reaped when the graphs are garbage collected)."""
    _SHARED_DATASETS.clear()


def set_truth_cache_limit(limit: int | None) -> None:
    """Bound the per-process truth memo to ``limit`` entries (LRU).

    ``None`` removes the bound (the harness default — a sweep touches a
    handful of datasets).  A long-running server process sets a bound so
    arbitrary request traffic cannot grow the memo without limit; the
    least-recently-used (dataset, scale, evaluation) entry is evicted
    first and counted in ``truth_cache_stats()["evictions"]``.
    """
    global _TRUTH_LIMIT
    if limit is not None and limit < 1:
        raise ExperimentError(f"truth cache limit must be >= 1, got {limit}")
    _TRUTH_LIMIT = limit
    _evict_to_limit()


def _evict_to_limit() -> None:
    while _TRUTH_LIMIT is not None and len(_TRUTH_MEMO) > _TRUTH_LIMIT:
        _TRUTH_MEMO.popitem(last=False)
        _TRUTH_STATS["evictions"] += 1


def cell_truth(config: ExperimentConfig, graph: MultiGraph) -> PropertySet:
    """The cell's truth PropertySet, memoized per process.

    ``graph`` must be the dataset the config names (the caller already
    has it loaded); the memo key deliberately omits fraction/seed/rc so
    all runs and fractions over one (dataset, scale, evaluation) triple
    share the single exact evaluation.
    """
    evaluation = config.evaluation_config()
    key = (config.dataset, config.scale, evaluation)
    cached = _TRUTH_MEMO.get(key)
    if cached is not None:
        _TRUTH_STATS["hits"] += 1
        _TRUTH_MEMO.move_to_end(key)
        return cached
    _TRUTH_STATS["misses"] += 1
    truth = compute_properties(graph, evaluation)
    _TRUTH_MEMO[key] = truth
    _evict_to_limit()
    return truth


def truth_cache_stats(merged: bool = True) -> dict[str, int]:
    """Truth-memo hit/miss/eviction counters.

    With ``merged=True`` (the default) the view folds in the deltas that
    pool workers reported back through the executor layer, so the
    numbers describe the whole (parent + workers) execution even under
    ``jobs > 1``.  ``merged=False`` is the process-local view: in the
    parent of a pooled run it counts only work the parent itself did.
    """
    stats = dict(_TRUTH_STATS)
    if merged:
        for name, value in _POOL_TRUTH_STATS.items():
            stats[name] += value
    return stats


def record_worker_truth_stats(delta: dict[str, int]) -> None:
    """Fold one worker item's truth-memo counter delta into the merged
    view (called parent-side by the executor layer for every completed
    pooled work-item)."""
    for name in _POOL_TRUTH_STATS:
        _POOL_TRUTH_STATS[name] += delta.get(name, 0)


def clear_truth_cache() -> None:
    """Drop memoized truth PropertySets and zero all counters (the
    process-local ones and the merged-back worker deltas)."""
    _TRUTH_MEMO.clear()
    for stats in (_TRUTH_STATS, _POOL_TRUTH_STATS):
        for name in stats:
            stats[name] = 0


def _run_once(
    graph: MultiGraph,
    truth: PropertySet,
    config: ExperimentConfig,
    run_seed: int,
) -> RunRecord:
    """One fair-comparison round of the cell: the run work-item body."""
    evaluation = config.evaluation_config()
    faulty = config.fault_policy is not None and not config.fault_policy.is_null
    outputs = run_methods_once(
        graph,
        config.fraction,
        methods=config.methods,
        rc=config.rc,
        rng=ensure_rng(run_seed),
        max_rewiring_attempts=config.max_rewiring_attempts,
        backend=config.backend or "auto",
        fault_policy=config.fault_policy,
        # the fault stream is a dedicated child of the pre-spawned run
        # seed, so (seed, policy) fully determines the crawl — serial,
        # jobs=N, and cross-process executions all replay it identically
        fault_seed=spawn_fault_seed(run_seed) if faulty else None,
    )
    distances: dict[str, dict[str, float]] = {}
    total: dict[str, float] = {}
    rewiring: dict[str, float] = {}
    for method, output in outputs.items():
        generated = compute_properties(output.graph, evaluation)
        distances[method] = l1_distances(truth, generated)
        total[method] = output.total_seconds
        rewiring[method] = output.rewiring_seconds
    return RunRecord(distances, total, rewiring)


def run_experiment(
    config: ExperimentConfig,
    original: MultiGraph | None = None,
    context: "RunContext | None" = None,
) -> dict[str, MethodAggregate]:
    """Run one experiment cell; returns per-method aggregates.

    ``original`` overrides the dataset lookup (tests inject small graphs).
    ``context``, when given, threads its execution fields into the config
    (:meth:`repro.api.RunContext.configure`): the backend fills a ``None``
    ``config.backend`` and ``exact_paths`` upgrades the evaluation.  The
    per-run seeds are always spawned from ``config.seed``, so the result
    is deterministic for a fixed config regardless of who executes it.

    With parallel capacity (``context.jobs > 1`` or a
    ``context.workers`` agent list) the ``runs`` rounds fan out over the
    context's executor as independent :func:`execute_run` work-items
    (:func:`repro.api.run.map_cells`, the one scheduler); each worker
    evaluates the cell's truth PropertySet once (per-process memo) and
    the records are folded in pre-spawned seed order, so the aggregates
    are bit-identical to the serial loop.  An injected ``original`` graph
    stays in process — only named datasets are cheap to rebuild
    worker-side.
    """
    from repro.api.context import spawn_seeds

    if config.runs < 1:
        raise ExperimentError("need at least one run")
    if context is not None:
        config = context.configure(config)

    if original is None and context is not None and context.parallelism > 1:
        from repro.api.run import map_cells

        (aggregates,) = map_cells([config], context)
        return aggregates

    run_seeds = spawn_seeds(config.seed, config.runs)
    if original is None:
        # same code path as a worker: dataset registry + truth memo
        records = [execute_run((config, seed)) for seed in run_seeds]
    else:
        truth = compute_properties(original, config.evaluation_config())
        records = [
            _run_once(original, truth, config, seed) for seed in run_seeds
        ]
    return aggregate_records(config, records)


def execute_run(payload: tuple[ExperimentConfig, int]) -> RunRecord:
    """Executor-side entry point: one round of one configured cell.

    The ``(config, run_seed)`` pair is one picklable payload — this is the
    function the process-pool workers and remote agents receive, so it
    must stay module-level; the serial executor and the in-process loop
    of :func:`run_experiment` call it too, keeping one code path.  The
    dataset comes from the per-process registry and the truth
    PropertySet from the per-process memo, so a worker pays the exact
    evaluation once per (dataset, scale, evaluation) however many runs it
    executes.
    """
    config, run_seed = payload
    graph, truth = _materialize_cell(config)
    return _run_once(graph, truth, config, run_seed)


def _materialize_cell(config: ExperimentConfig):
    """Resolve a cell's (crawl graph, truth PropertySet) pair.

    The crawl graph is the shared-memory snapshot when one is installed
    for the cell's ``(dataset, scale)`` — the crawlers touch graphs only
    through the :class:`~repro.sampling.access.GraphAccess` neighbor-query
    surface, which the zero-copy snapshot serves with identical node
    order and identical incident-endpoint lists, so the crawl is
    bit-identical to one over the mutable dataset.  The truth comes from
    the memo (pre-seeded by the parent for shared datasets); when a
    shared graph exists but this evaluation's truth was not shipped (a
    service worker seeing a new request shape), the truth is computed
    from the *mutable* dataset on the canonical path — evaluating the 12
    properties on the snapshot directly would let ``backend="auto"``
    resolve differently than the serial reference and break bit-identity.
    """
    shared = _SHARED_DATASETS.get((config.dataset, config.scale))
    if shared is not None:
        evaluation = config.evaluation_config()
        key = (config.dataset, config.scale, evaluation)
        cached = _TRUTH_MEMO.get(key)
        if cached is not None:
            _TRUTH_STATS["hits"] += 1
            _TRUTH_MEMO.move_to_end(key)
            return shared, cached
        graph = load_dataset(config.dataset, scale=config.scale)
        return shared, cell_truth(config, graph)
    graph = load_dataset(config.dataset, scale=config.scale)
    return graph, cell_truth(config, graph)


def truth_stats_delta(fn, payload):
    """Run ``fn(payload)`` and return ``(result, truth-counter delta)``.

    The delta is what *this item* added to the process-local counters —
    items execute sequentially within a worker process, so summing the
    deltas of every item a pool ran reproduces the workers' total
    activity exactly, with no double counting however items were
    distributed.  Pooled harness items (:func:`execute_run_with_stats`)
    and service requests (:func:`repro.service.handlers.run_op`) both
    report through it; the parent folds each delta into its merged view
    with :func:`record_worker_truth_stats`, without which
    ``truth_cache_stats()`` under ``jobs > 1`` reads only the parent's
    untouched counters.
    """
    before = dict(_TRUTH_STATS)
    result = fn(payload)
    delta = {name: _TRUTH_STATS[name] - before[name] for name in before}
    return result, delta


def execute_run_with_stats(
    payload: tuple[ExperimentConfig, int],
) -> tuple[RunRecord, dict[str, int]]:
    """:func:`execute_run` plus this item's truth-memo counter delta (the
    work-item pooled executors map)."""
    return truth_stats_delta(execute_run, payload)


def aggregate_records(
    config: ExperimentConfig, records: "list[RunRecord]"
) -> dict[str, MethodAggregate]:
    """Fold per-run records (in seed order) into per-method aggregates.

    This is the single aggregation point: the serial loop and the run
    queue of :func:`repro.api.run.map_cells` both produce records in the
    pre-spawned seed order, so the float reductions here see identical
    operand sequences — the bit-identity contract.
    """
    return {
        method: _aggregate(
            method,
            [record.distances[method] for record in records],
            [record.total_seconds[method] for record in records],
            [record.rewiring_seconds[method] for record in records],
        )
        for method in config.methods
    }


def _aggregate(
    method: str,
    run_distances: list[dict[str, float]],
    run_times: list[float],
    run_rewire_times: list[float],
) -> MethodAggregate:
    per_property = {
        name: mean(d[name] for d in run_distances) for name in PROPERTY_NAMES
    }
    # isfinite, not != inf: a NaN distance (0/0 on a degenerate graph) or
    # a -inf must not poison the headline avg ± sd either
    finite = [v for v in per_property.values() if math.isfinite(v)]
    avg = mean(finite) if finite else float("inf")
    sd = pstdev(finite) if finite else float("inf")
    return MethodAggregate(
        method=method,
        per_property=per_property,
        average_l1=avg,
        std_l1=sd,
        total_seconds=mean(run_times),
        rewiring_seconds=mean(run_rewire_times),
    )
