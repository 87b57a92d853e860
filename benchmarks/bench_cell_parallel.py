"""Single-cell run-level parallelism: the Table V shape under ``--jobs``.

Table V is one (dataset, fraction) cell — the workload that only a
run-level work queue can spread: shipped whole, the cell would leave
every worker but one idle.  This bench runs that shape twice through
``run_experiment``: once under ``RunContext(jobs=1)`` and once under
``RunContext(jobs=2)`` (which queues the cell's runs as separate
work-items), each from a cold dataset/truth cache so both sides pay
their real end-to-end cost — the parallel side publishes the dataset
and its truth PropertySet once, parent-side, for its workers.

Two assertions:

* **bit-identity** — the deterministic aggregate CSV of the run-parallel
  cell is byte-identical to the serial loop's (aggregation order is fixed
  by the pre-spawned run seed list);
* **speedup** — two workers over ``BENCH_CELL_RUNS`` runs must beat
  :data:`TARGET_SPEEDUP` wall-clock.

The wall-clock guard is only meaningful with real parallel hardware: on a
single-CPU machine two workers time-slice one core and no speedup is
physically possible, so the bench skips there (set ``BENCH_CELL_FORCE=1``
to run anyway — bit-identity is still asserted and the measurement is
recorded with its CPU count, but the speedup bar is not enforced).

Knobs (environment):

    BENCH_CELL_SCALE       dataset scale            (default 0.35)
    BENCH_CELL_RUNS        runs in the cell         (default 6)
    BENCH_CELL_RC          rewiring coefficient     (default 10)
    BENCH_CELL_FRACTION    fraction queried         (default 0.05;
                           scale-compensated, see table5_rows docstring)
    BENCH_CELL_FORCE       run despite < 2 CPUs     (default off)
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import BENCH_EVAL, write_json

from repro.api import RunContext, clear_truth_cache, run_experiment
from repro.experiments.report import results_to_csv
from repro.experiments.runner import ExperimentConfig
from repro.graph.datasets import YOUTUBE_DATASET, clear_dataset_cache

SCALE = float(os.environ.get("BENCH_CELL_SCALE", "0.35"))
RUNS = int(os.environ.get("BENCH_CELL_RUNS", "6"))
RC = float(os.environ.get("BENCH_CELL_RC", "10"))
FRACTION = float(os.environ.get("BENCH_CELL_FRACTION", "0.05"))

TARGET_SPEEDUP = 1.7  # 2 workers over a 6-run single cell
SEED = 7
METHODS = ("rw", "gjoka", "proposed")


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=YOUTUBE_DATASET,
        fraction=FRACTION,
        runs=RUNS,
        methods=METHODS,
        rc=RC,
        scale=SCALE,
        evaluation=BENCH_EVAL,
    )


def _timed_cell(jobs: int):
    clear_dataset_cache()  # both sides start from cold caches
    clear_truth_cache()
    start = time.perf_counter()
    aggregates = run_experiment(_config(), context=RunContext(seed=SEED, jobs=jobs))
    return aggregates, time.perf_counter() - start


def test_bench_cell_parallel(results_dir):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    enforce = cpus >= 2
    if not enforce and os.environ.get("BENCH_CELL_FORCE") != "1":
        pytest.skip("single-cell parallel bench needs >= 2 CPUs")

    serial, t_serial = _timed_cell(jobs=1)
    parallel, t_parallel = _timed_cell(jobs=2)

    serial_csv = results_to_csv({YOUTUBE_DATASET: serial}, include_timings=False)
    parallel_csv = results_to_csv({YOUTUBE_DATASET: parallel}, include_timings=False)
    assert serial_csv == parallel_csv  # bit-identical before timing is trusted

    speedup = t_serial / t_parallel
    payload = {
        "cpus": cpus,
        "speedup_guard_enforced": enforce,
        "cell": {
            "dataset": YOUTUBE_DATASET,
            "fraction": FRACTION,
            "runs": RUNS,
            "rc": RC,
            "scale": SCALE,
            "methods": list(METHODS),
        },
        "jobs1_seconds": t_serial,
        "jobs2_seconds": t_parallel,
        "speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
        "bit_identical_csv": serial_csv == parallel_csv,
    }
    write_json("bench_cell_parallel.json", payload)

    if enforce:
        assert speedup >= TARGET_SPEEDUP, payload
