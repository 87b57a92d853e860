"""Golden digests: pin deterministic outputs across trees.

Every other determinism test compares two runs of one tree (serial vs
pooled, ``python`` vs ``csr``), so a change that moves every number at
once passes them all.  These tests pin the bytes themselves: the SHA-256
of a small sweep's ``include_timings=False`` CSV and of the edge lists
``repro restore --out`` writes, each under ``auto`` and forced
``python``, of a faulty crawl's restored edge list, of what ``repro
convergence`` prints, and of what the other experiment front ends
return: Tables III and V as ``include_timings=False`` CSV, the Figure 3
series block and the rows of the three ablations.  Only 6-decimal CSVs
and rows, integer edge lists and 3-decimal tables are digested, never
raw floats: λ1 agrees between calls only to solver tolerance.

``tests/golden/digests.json`` records the python, numpy and scipy
versions it was made with; under another numpy or scipy major.minor the
tests skip.  CI's Python 3.12 leg pins those major.minor versions and
fails if any of these tests skips there.  The 3.10 leg always skips them:
numpy >= 2.3 needs Python >= 3.11.  Regenerate the file only on purpose,
and say why in CHANGES.md::

    PYTHONPATH=src python -m pytest tests/test_golden.py --regen-golden
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy
import pytest
import scipy

from repro.api import RunContext, run_sweep, sweep_to_csv
from repro.cli import main
from repro.experiments.ablations import (
    rc_sweep_ablation,
    rewiring_exclusion_ablation,
    subgraph_use_ablation,
)
from repro.experiments.figures import Figure3Settings, figure3_series, format_figure3
from repro.experiments.report import results_to_csv
from repro.experiments.sweeps import SweepGrid
from repro.experiments.tables import TableSettings, table3_rows, table5_rows
from repro.graph.datasets import YOUTUBE_DATASET
from repro.metrics.suite import EvaluationConfig
from repro.sampling.faults import FaultPolicy

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"

BACKENDS = ("auto", "python")
RESTORE_DATASETS = ("anybeat", "youtube")
CONVERGENCE_DATASETS = ("anybeat", "youtube")

GRID = SweepGrid(
    datasets=("anybeat", "youtube"),
    fractions=(0.1,),
    rcs=(5.0,),
    runs=1,
    scale=0.1,
    evaluation=EvaluationConfig(
        exact_threshold=400, path_sources=96, betweenness_pivots=48, seed=1
    ),
    fault_policies=(
        None,
        FaultPolicy(failure_rate=0.1, rate_limit=40, truncate_at=10, churn=0.05),
    ),
)

# the table, figure and ablation front ends, small: scale 0.1, one run, rc 5
TABLES = TableSettings(runs=1, rc=5.0, scale=0.1, evaluation=GRID.evaluation)
FIGURE3 = Figure3Settings(
    fractions=(0.05, 0.1), runs=1, rc=5.0, scale=0.1, evaluation=GRID.evaluation
)
ABLATIONS = {
    "rewiring": lambda **kw: rewiring_exclusion_ablation(rc=5.0, **kw),
    "rc": rc_sweep_ablation,
    "subgraph": lambda **kw: subgraph_use_ablation(rc=5.0, **kw),
}

CASES = [f"sweep/{backend}" for backend in BACKENDS] + [
    f"restore/{dataset}/{backend}"
    for dataset in RESTORE_DATASETS
    for backend in BACKENDS
] + [f"convergence/{dataset}" for dataset in CONVERGENCE_DATASETS] + [
    "faulty-restore/anybeat/auto",
    "table/table3",
    "table/table5",
    "figure3",
] + [f"ablation/{name}" for name in ABLATIONS]


def _versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sweep_digest(backend: str) -> str:
    results = run_sweep(GRID, context=RunContext(seed=7, backend=backend))
    return _sha256(sweep_to_csv(results, include_timings=False).encode("utf-8"))


def _restore_digest(
    dataset: str, backend: str, tmp_path: Path, faults: tuple[str, ...] = ()
) -> str:
    prefix = tmp_path / f"{dataset}-{backend}"
    argv = ["restore", dataset, "--scale", "0.1", "--fraction", "0.1"]
    argv += ["--rc", "5", "--backend", backend, "--out", str(prefix), *faults]
    assert main(argv) == 0
    return _sha256(Path(f"{prefix}.edges").read_bytes())


def _table_digest(table: str) -> str:
    if table == "table3":
        results = table3_rows(TABLES)
    else:
        results = {YOUTUBE_DATASET: table5_rows(TABLES)}
    return _sha256(results_to_csv(results, include_timings=False).encode("utf-8"))


def _figure3_digest() -> str:
    series = figure3_series(FIGURE3)
    return _sha256(format_figure3(series, FIGURE3.fractions).encode("utf-8"))


def _ablation_digest(name: str) -> str:
    rows = ABLATIONS[name](
        dataset="anybeat", scale=0.1, evaluation=GRID.evaluation
    )
    # every field but rewiring_seconds, a measurement
    text = "\n".join(
        f"{row.variant}\t{row.average_l1:.6f}\t{row.clustering_l1:.6f}"
        f"\t{row.rewiring_accepted}\t{row.final_distance:.6f}"
        for row in rows
    )
    return _sha256(text.encode("utf-8"))


def _convergence_digest(dataset: str, capsys) -> str:
    capsys.readouterr()
    assert main(["convergence", "--dataset", dataset, "--runs", "2"]) == 0
    return _sha256(capsys.readouterr().out.encode("utf-8"))


def _digest(case: str, tmp_path: Path, capsys) -> str:
    kind, *rest = case.split("/")
    if kind == "sweep":
        return _sweep_digest(*rest)
    if kind == "convergence":
        return _convergence_digest(*rest, capsys)
    if kind == "faulty-restore":
        faults = ("--fault-rate", "0.1", "--churn", "0.05")
        return _restore_digest(*rest, tmp_path, faults)
    if kind == "table":
        return _table_digest(*rest)
    if kind == "figure3":
        return _figure3_digest()
    if kind == "ablation":
        return _ablation_digest(*rest)
    return _restore_digest(*rest, tmp_path)


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(case, tmp_path, capsys, request):
    regen = request.config.getoption("--regen-golden")
    if regen and not GOLDEN_PATH.exists():
        golden = {}
    else:
        golden = json.loads(GOLDEN_PATH.read_text())
    if not regen:
        current = _versions()
        for lib in ("numpy", "scipy"):
            recorded = golden["versions"][lib]
            if _major_minor(recorded) != _major_minor(current[lib]):
                pytest.skip(
                    f"golden digests were made with {lib} {recorded}; "
                    f"this is {lib} {current[lib]}"
                )
    digest = _digest(case, tmp_path, capsys)
    capsys.readouterr()  # the restore command prints a profile comparison
    if regen:
        golden["versions"] = _versions()
        golden.setdefault("digests", {})[case] = digest
        golden["digests"] = dict(sorted(golden["digests"].items()))
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
        return
    assert digest == golden["digests"][case], (
        f"{case} output moved; if that is intended, rerun with --regen-golden "
        "and record why in CHANGES.md"
    )
