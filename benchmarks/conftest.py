"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures at
*bench scale* (reduced dataset scale, fewer runs, smaller rewiring budget)
so the whole suite completes on a laptop; the knobs below can be raised to
paper scale via environment variables:

    BENCH_SCALE   dataset scale multiplier      (default 0.30, paper 1.0)
    BENCH_RUNS    runs per experiment cell      (default 1,    paper 10)
    BENCH_RC      rewiring coefficient          (default 10,   paper 500)

Each benchmark writes its formatted output to ``benchmarks/results/`` so
the regenerated rows survive the run (docs/BENCHMARKS.md describes them).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.metrics.suite import EvaluationConfig

BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.35"))
BENCH_RUNS = int(os.environ.get("BENCH_RUNS", "2"))
BENCH_RC = float(os.environ.get("BENCH_RC", "10"))

# sampled global metrics keep evaluation cost flat across graph sizes
BENCH_EVAL = EvaluationConfig(
    exact_threshold=400, path_sources=96, betweenness_pivots=48, seed=7
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(name: str, text: str) -> None:
    """Persist one benchmark's formatted table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n", encoding="utf-8")


def write_json(name: str, payload: dict) -> None:
    """Persist one benchmark's machine-readable result next to the tables."""
    write_result(name, json.dumps(payload, indent=2, sort_keys=True))
