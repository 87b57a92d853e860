"""Tests for the ``repro.api`` layer: RunContext, executors, and the
serial↔parallel equivalence contract of the rewired experiment modules."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.api import (
    LocalPoolTransport,
    RunContext,
    Scheduler,
    SerialExecutor,
    clear_truth_cache,
    executor_for,
    run_sweep,
    spawn_seeds,
    sweep_to_csv,
    truth_cache_stats,
)
from repro.api.scheduler import MAX_UNYIELDED_FACTOR, PREFETCH_FACTOR
from repro.errors import ExperimentError
from repro.experiments.report import results_to_csv
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.sweeps import SweepGrid
from repro.metrics.suite import EvaluationConfig

FAST_EVAL = EvaluationConfig(exact_threshold=200, path_sources=32, betweenness_pivots=16)


class TestRunContext:
    def test_defaults(self):
        ctx = RunContext()
        assert (ctx.backend, ctx.seed, ctx.exact_paths, ctx.jobs) == (
            "auto", 1, False, 1,
        )

    def test_validation(self):
        with pytest.raises(ExperimentError):
            RunContext(backend="gpu")
        with pytest.raises(ExperimentError):
            RunContext(jobs=0)

    def test_seed_spawning_deterministic(self):
        a = RunContext(seed=9)
        b = RunContext(seed=9)
        assert a.seed_for(3) == b.seed_for(3)
        assert a.seed_for(3) != a.seed_for(4)
        assert spawn_seeds(a.seed_for(3), 4) == spawn_seeds(b.seed_for(3), 4)
        # distinct base seeds diverge, negative bases are accepted
        assert RunContext(seed=10).seed_for(3) != a.seed_for(3)
        assert spawn_seeds(-5, 2) == spawn_seeds(-5, 2)

    def test_configure_fills_only_unset_backend(self):
        ctx = RunContext(backend="csr")
        filled = ctx.configure(ExperimentConfig(dataset="x"))
        assert filled.backend == "csr"
        pinned = ctx.configure(ExperimentConfig(dataset="x", backend="python"))
        assert pinned.backend == "python"

    def test_configure_exact_paths_is_sticky(self):
        ctx = RunContext(exact_paths=True)
        config = ctx.configure(ExperimentConfig(dataset="x", evaluation=FAST_EVAL))
        assert config.evaluation.exact_paths
        # the context never turns an explicit opt-in off
        pre = EvaluationConfig(exact_paths=True)
        out = RunContext().configure(ExperimentConfig(dataset="x", evaluation=pre))
        assert out.evaluation.exact_paths


class TestExactPathsMode:
    def test_sources_override(self, social_graph):
        sampled = EvaluationConfig(exact_threshold=10, path_sources=4)
        assert sampled.sources_for(social_graph) == 4
        exact = EvaluationConfig(exact_threshold=10, path_sources=4, exact_paths=True)
        assert exact.sources_for(social_graph) is None
        # betweenness keeps its pivot sampling
        assert exact.pivots_for(social_graph) is not None


def _slow_square(x: int) -> int:
    """Module-level worker fn (pickled into the pool)."""
    if x == 0:
        time.sleep(0.3)  # first item finishes last: order must still hold
    return x * x


def _explode(x: int) -> int:
    if x == 0:
        raise ValueError("boom")
    return x


def _slow_head(x: int) -> int:
    """Item 0 far outlasts the rest: the head-of-line starvation shape."""
    time.sleep(0.75 if x == 0 else 0.01)
    return x


class _CountingIterable:
    """Iterator that records how many items the executor has pulled."""

    def __init__(self, n: int) -> None:
        self.pulled = 0
        self._it = iter(range(n))

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self._it)
        self.pulled += 1
        return value


class _InstantFuture:
    """Future that completed the moment it was submitted."""

    def __init__(self, value=None, error=None):
        self._value = value
        self._error = error

    def done(self):
        return True

    def exception(self):
        return self._error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _InstantPool:
    """In-process stand-in whose futures complete at submit time — makes
    the executor's input-pull pacing deterministic (no worker timing)."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        try:
            return _InstantFuture(fn(item))
        except BaseException as error:  # noqa: BLE001 — futures capture all
            return _InstantFuture(error=error)

    def shutdown(self, **kwargs):
        pass


class TestExecutors:
    def test_serial_streams_in_order(self):
        out = list(SerialExecutor().map(_slow_square, [1, 2, 3]))
        assert out == [1, 4, 9]

    def test_executor_for_dispatch(self):
        assert isinstance(executor_for(RunContext(jobs=1)), SerialExecutor)
        pool = executor_for(RunContext(jobs=3))
        assert isinstance(pool, Scheduler)
        assert isinstance(pool.transport, LocalPoolTransport)
        assert pool.transport.slots == 3

    def test_pool_preserves_submission_order(self):
        out = list(Scheduler(LocalPoolTransport(2)).map(_slow_square, [0, 1, 2, 3]))
        assert out == [0, 1, 4, 9]

    def test_pool_empty_items(self):
        assert list(Scheduler(LocalPoolTransport(2)).map(_slow_square, [])) == []

    def test_pool_propagates_cell_error(self):
        with pytest.raises(ValueError, match="boom"):
            list(Scheduler(LocalPoolTransport(2)).map(_explode, [0, 1, 2, 3]))

    def test_pool_pulls_input_paced_by_completions(self, monkeypatch):
        """Input is pulled (and pickled) only as earlier items complete —
        never the whole grid up front.  The instant-completion fake pool
        makes the pacing deterministic: each wake of the generator
        refills at most one window."""
        import repro.api.scheduler as scheduler_module

        monkeypatch.setattr(
            scheduler_module._futures, "ProcessPoolExecutor", _InstantPool
        )
        items = _CountingIterable(20)
        window = 2 * PREFETCH_FACTOR
        out = []
        for consumed, result in enumerate(
            Scheduler(LocalPoolTransport(2)).map(lambda x: x * x, items)  # reprolint: disable=REP201 fake in-process pool, never pickled
        ):
            # head window + one refill window per completed-head wake
            assert items.pulled <= min(window * (consumed + 2), 20)
            out.append(result)
        assert out == [x * x for x in range(20)]
        assert items.pulled == 20

    def test_pool_observed_failure_stops_refilling(self, monkeypatch):
        """A failure *behind* still-pending earlier items stops input
        pulls the moment it is observed, while earlier results still
        yield and the error still surfaces in submission order."""
        import repro.api.scheduler as scheduler_module

        monkeypatch.setattr(
            scheduler_module._futures, "ProcessPoolExecutor", _InstantPool
        )
        items = _CountingIterable(100)
        window = 2 * PREFETCH_FACTOR

        def fn(x):
            if x == 2:
                raise ValueError("boom")
            return x

        gen = Scheduler(LocalPoolTransport(2)).map(fn, items)  # reprolint: disable=REP201 fake in-process pool, never pickled
        assert next(gen) == 0
        assert next(gen) == 1
        with pytest.raises(ValueError, match="boom"):
            next(gen)
        # item 2 failed inside the head window; nothing past it was pulled
        assert items.pulled == window

    def test_pool_slow_head_does_not_starve_workers(self):
        """Completed-but-unyielded results release their submission
        slots: while the queue head is still running, the refill loop
        keeps feeding the other workers past the initial window."""
        items = _CountingIterable(12)
        out = list(Scheduler(LocalPoolTransport(2)).map(_slow_head, items))
        assert out == list(range(12))
        assert items.pulled == 12

    def test_pool_slow_head_refills_before_first_yield(self):
        items = _CountingIterable(50)
        gen = Scheduler(LocalPoolTransport(2)).map(_slow_head, items)
        assert next(gen) == 0  # the slow head itself
        # the old code froze at the initial window until the head
        # yielded; the refill loop must have pulled past it by now —
        # but never past the total-unyielded cap, however slow the head
        assert items.pulled > 2 * PREFETCH_FACTOR
        assert items.pulled <= 2 * MAX_UNYIELDED_FACTOR
        assert list(gen) == list(range(1, 50))

    def test_pool_failure_stops_pulling_input(self):
        """Cancel-on-failure also means the rest of a lazy input is never
        submitted once an item has raised."""
        items = _CountingIterable(1000)
        with pytest.raises(ValueError, match="boom"):
            list(Scheduler(LocalPoolTransport(2)).map(_explode, items))
        # nothing was yielded before item 0's failure surfaced, so the
        # total-unyielded cap is a hard bound on how much input was pulled
        assert items.pulled <= 2 * MAX_UNYIELDED_FACTOR


class TestSweepGridBackendThreading:
    """Regression: SweepGrid.cells() used to drop the compute backend."""

    def test_cells_carry_context_backend(self):
        grid = SweepGrid(datasets=("anybeat",), fractions=(0.1, 0.2))
        cells = list(grid.cells(RunContext(backend="csr")))
        assert [c.backend for c in cells] == ["csr", "csr"]
        # and the backend reaches the per-cell evaluation config
        assert all(c.evaluation_config().backend == "csr" for c in cells)

    def test_cells_get_spawned_seeds(self):
        grid = SweepGrid(datasets=("anybeat",), fractions=(0.1, 0.2))
        ctx = RunContext(seed=5)
        seeds = [c.seed for c in grid.cells(ctx)]
        assert seeds == [ctx.seed_for(0), ctx.seed_for(1)]
        assert len(set(seeds)) == 2

    def test_legacy_cells_unchanged(self):
        grid = SweepGrid(datasets=("anybeat",), fractions=(0.1,), seed=3)
        cell = next(grid.cells())
        assert cell.seed == 3
        assert cell.backend is None


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def grid(self):
        return SweepGrid(
            datasets=("anybeat",),
            fractions=(0.1, 0.2),
            rcs=(3.0,),
            runs=1,
            methods=("rw", "proposed"),
            scale=0.12,
            evaluation=FAST_EVAL,
        )

    def test_jobs2_bit_identical_to_serial(self, grid, tmp_path):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        serial = run_sweep(grid, csv_path=serial_csv, context=RunContext(seed=5))
        parallel = run_sweep(
            grid, csv_path=parallel_csv, context=RunContext(seed=5, jobs=2)
        )
        # the deterministic aggregate columns are byte-identical
        assert sweep_to_csv(serial, include_timings=False) == sweep_to_csv(
            parallel, include_timings=False
        )
        # and so are the underlying per-property aggregates, exactly
        for s_cell, p_cell in zip(serial, parallel, strict=True):
            assert s_cell.config == p_cell.config
            for method in s_cell.aggregates:
                assert (
                    s_cell.aggregates[method].per_property
                    == p_cell.aggregates[method].per_property
                )
                assert (
                    s_cell.aggregates[method].average_l1
                    == p_cell.aggregates[method].average_l1
                )
        # checkpoints were written for both runs, in the same cell order
        s_rows = serial_csv.read_text().splitlines()
        p_rows = parallel_csv.read_text().splitlines()
        assert [r.split(",")[0] for r in s_rows] == [r.split(",")[0] for r in p_rows]

    def test_same_seed_same_results_across_calls(self, grid):
        a = run_sweep(grid, context=RunContext(seed=5))
        b = run_sweep(grid, context=RunContext(seed=5))
        assert sweep_to_csv(a, include_timings=False) == sweep_to_csv(
            b, include_timings=False
        )


class TestRunQueue:
    """Cells × runs flatten into one queue of run work-items; the pooled
    aggregates must be bit-identical to the serial loop because
    aggregation order is fixed by the pre-spawned run seed list, not by
    worker timing."""

    CONFIG = ExperimentConfig(
        dataset="anybeat",
        fraction=0.1,
        runs=3,
        methods=("rw", "proposed"),
        rc=3.0,
        scale=0.12,
        evaluation=FAST_EVAL,
    )

    def test_single_cell_jobs2_byte_identical_csv(self):
        serial = run_experiment(self.CONFIG, context=RunContext(seed=5))
        parallel = run_experiment(self.CONFIG, context=RunContext(seed=5, jobs=2))
        assert results_to_csv(
            {"anybeat": serial}, include_timings=False
        ) == results_to_csv({"anybeat": parallel}, include_timings=False)
        # and the underlying floats are exactly equal, not just printed alike
        for method in serial:
            assert serial[method].per_property == parallel[method].per_property
            assert serial[method].average_l1 == parallel[method].average_l1
            assert serial[method].std_l1 == parallel[method].std_l1

    def test_multi_cell_sweep_jobs2_byte_identical(self, tmp_path):
        grid = SweepGrid(
            datasets=("anybeat",),
            fractions=(0.1, 0.2),
            rcs=(3.0,),
            runs=2,
            methods=("rw", "proposed"),
            scale=0.12,
            evaluation=FAST_EVAL,
        )
        serial = sweep_to_csv(
            run_sweep(grid, context=RunContext(seed=5)), include_timings=False
        )
        parallel_csv = tmp_path / "parallel.csv"
        parallel = sweep_to_csv(
            run_sweep(
                grid, csv_path=parallel_csv, context=RunContext(seed=5, jobs=2)
            ),
            include_timings=False,
        )
        assert serial == parallel
        # checkpointing still streams per completed cell
        assert parallel_csv.read_text().startswith("dataset,method,")

    def test_injected_graph_stays_serial(self, social_graph):
        # an original= graph cannot be rebuilt worker-side by name; the
        # fan-out must quietly fall back to the in-process loop
        config = dataclasses.replace(self.CONFIG, dataset="ignored", fraction=0.25)
        serial = run_experiment(config, original=social_graph,
                                context=RunContext(seed=5))
        parallel = run_experiment(config, original=social_graph,
                                  context=RunContext(seed=5, jobs=2))
        for method in serial:
            assert serial[method].per_property == parallel[method].per_property


class TestTruthMemo:
    """The cell's truth PropertySet is computed once per (dataset, scale,
    evaluation) per process, however many runs or fractions execute."""

    def _config(self, fraction=0.1, runs=3):
        return ExperimentConfig(
            dataset="anybeat",
            fraction=fraction,
            runs=runs,
            methods=("rw",),
            rc=3.0,
            scale=0.12,
            evaluation=FAST_EVAL,
        )

    def test_one_miss_then_hits_within_a_cell(self):
        clear_truth_cache()
        run_experiment(self._config(runs=3), context=RunContext(seed=5))
        stats = truth_cache_stats()
        assert stats == {"hits": 2, "misses": 1, "evictions": 0}

    def test_second_fraction_reuses_truth(self):
        clear_truth_cache()
        run_experiment(self._config(fraction=0.1, runs=2), context=RunContext(seed=5))
        run_experiment(self._config(fraction=0.2, runs=2), context=RunContext(seed=5))
        # truth depends on (dataset, scale, evaluation) only — not fraction
        stats = truth_cache_stats()
        assert stats == {"hits": 3, "misses": 1, "evictions": 0}

    def test_distinct_evaluation_distinct_truth(self):
        clear_truth_cache()
        run_experiment(self._config(runs=1), context=RunContext(seed=5))
        other = dataclasses.replace(
            self._config(runs=1),
            evaluation=dataclasses.replace(FAST_EVAL, path_sources=16),
        )
        run_experiment(other, context=RunContext(seed=5))
        assert truth_cache_stats()["misses"] == 2

    @pytest.mark.parametrize(
        "fractions", [(0.1,), (0.1, 0.2)], ids=["one-cell", "two-cells"]
    )
    def test_pooled_execution_aggregates_worker_stats(self, fractions, monkeypatch):
        """Regression: under ``jobs > 1`` the truth memo lives in the
        worker processes, so the parent's own counters stay zero — the
        merged view must fold the per-item worker deltas back instead of
        reporting an all-zero cache for a run that clearly used it.
        (Publication is made unavailable, as when shared memory is, to
        pin the rebuild-per-worker path this regression is about; the
        shared path is covered below.)"""
        import repro.api.workers as workers

        monkeypatch.setattr(workers, "publish_cells", lambda cells: None)
        clear_truth_cache()
        grid = SweepGrid(
            datasets=("anybeat",),
            fractions=fractions,
            rcs=(3.0,),
            runs=3,
            methods=("rw",),
            scale=0.12,
            evaluation=FAST_EVAL,
        )
        run_sweep(grid, context=RunContext(seed=5, jobs=2))
        local = truth_cache_stats(merged=False)
        assert local == {"hits": 0, "misses": 0, "evictions": 0}
        merged = truth_cache_stats()
        # every run either computed the cell truth or reused a pooled
        # worker's memo: the deltas must account for all of them
        assert merged["hits"] + merged["misses"] == 3 * len(fractions)
        assert merged["misses"] >= 1

    def test_shared_memory_ships_truth_to_workers(self):
        """With shared-memory publication (the default) the parent
        computes the cell truth exactly once and the workers only ever
        *hit* their pre-seeded memos — the exact evaluation runs once per
        (dataset, scale, evaluation) for the whole pool."""
        clear_truth_cache()
        run_experiment(self._config(runs=3), context=RunContext(seed=5, jobs=2))
        local = truth_cache_stats(merged=False)
        assert local["misses"] == 1  # the parent's single publication compute
        merged = truth_cache_stats()
        assert merged["misses"] == 1
        assert merged["hits"] >= 3  # one per pooled run, all memo hits


class TestRunExperimentContext:
    def test_context_backend_reaches_cell(self, social_graph):
        config = ExperimentConfig(
            dataset="ignored", fraction=0.25, runs=1, methods=("rw",),
            evaluation=FAST_EVAL,
        )
        serial = run_experiment(
            config, original=social_graph, context=RunContext(backend="python", seed=2)
        )
        csr = run_experiment(
            config, original=social_graph, context=RunContext(backend="csr", seed=2)
        )
        # same seeds, same sampled protocol: backends agree on the
        # bit-identical properties (engine contract), so the headline
        # numbers match to float round-off
        assert serial["rw"].average_l1 == pytest.approx(csr["rw"].average_l1)


class TestCliSweep:
    def test_sweep_command(self, capsys, tmp_path):
        from repro.cli import main

        csv_path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--datasets", "anybeat", "--fractions", "0.2",
            "--runs", "1", "--rc", "3", "--scale", "0.12",
            "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dataset,method,")
        assert "anybeat@0.2/rc3" in out
        assert csv_path.exists()
