"""Whole-sweep guard for ``backend="auto"``: not slower than ``python``.

``auto`` runs every property kernel on the CSR engine at any graph size;
only the kernels listed in
:data:`repro.engine.dispatch.AUTO_KERNEL_THRESHOLDS` still compare a
size first.  Whole cells, not kernel microbenchmarks, judge that rule,
so this bench runs a grid shaped like perfbench's ``sweep-pool``
workload (4 datasets x 6 fractions x 2 rewiring coefficients at scale
0.1: 48 small cells, the regime the old per-kernel edge thresholds kept
on python) serially, under ``auto`` and under forced ``python``,
alternating which goes first, best of :data:`ROUNDS`.  Each run starts
from cold dataset and truth caches.

Two assertions:

* **bit-identity** — the ``include_timings=False`` CSVs of both backends
  are byte-identical (always enforced, before the speed check);
* **speed** — the best ``auto`` run is not slower than the best
  ``python`` run.
"""

from __future__ import annotations

import hashlib
import os
import time

from conftest import write_json

from repro.api import RunContext, run_sweep, sweep_to_csv
from repro.experiments.runner import clear_truth_cache
from repro.experiments.sweeps import SweepGrid
from repro.graph.datasets import clear_dataset_cache
from repro.metrics.suite import EvaluationConfig

ROUNDS = 2  # timed runs per backend
SEED = 1

GRID = SweepGrid(
    datasets=("anybeat", "brightkite", "epinions", "youtube"),
    fractions=(0.02, 0.04, 0.06, 0.08, 0.10, 0.12),
    rcs=(5.0, 10.0),
    runs=1,
    scale=0.1,
    evaluation=EvaluationConfig(
        exact_threshold=400, path_sources=96, betweenness_pivots=48, seed=SEED
    ),
)


def _timed_sweep(backend: str) -> tuple[str, float]:
    clear_dataset_cache()  # both backends start from the same cold caches
    clear_truth_cache()
    start = time.perf_counter()
    results = run_sweep(GRID, context=RunContext(seed=SEED, backend=backend))
    seconds = time.perf_counter() - start
    return sweep_to_csv(results, include_timings=False), seconds


def test_bench_auto_dispatch(results_dir):
    csvs: dict[str, set[str]] = {"auto": set(), "python": set()}
    seconds: dict[str, list[float]] = {"auto": [], "python": []}
    for round_index in range(ROUNDS):
        order = ("auto", "python") if round_index % 2 == 0 else ("python", "auto")
        for backend in order:
            text, elapsed = _timed_sweep(backend)
            csvs[backend].add(text)
            seconds[backend].append(elapsed)
    outputs = csvs["auto"] | csvs["python"]
    assert len(outputs) == 1, "auto and python sweeps wrote different CSVs"

    best = {backend: min(times) for backend, times in seconds.items()}
    payload = {
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "grid": {
            "datasets": list(GRID.datasets),
            "fractions": list(GRID.fractions),
            "rcs": list(GRID.rcs),
            "cells": GRID.size(),
            "scale": GRID.scale,
            "runs_per_cell": GRID.runs,
        },
        "rounds": ROUNDS,
        "seconds": seconds,
        "best_seconds": best,
        "python_over_auto": best["python"] / best["auto"],
        "csv_sha256": hashlib.sha256(outputs.pop().encode("utf-8")).hexdigest(),
    }
    write_json("bench_auto_dispatch.json", payload)
    assert best["auto"] <= best["python"], payload
