"""Golden digests: pin deterministic outputs across trees.

Every other determinism test compares two runs of one tree (serial vs
pooled, ``python`` vs ``csr``), so a change that moves every number at
once passes them all.  These tests pin the bytes themselves: the SHA-256
of a small sweep's ``include_timings=False`` CSV and of the edge lists
``repro restore --out`` writes, each under ``auto`` and forced
``python``, and of what ``repro convergence`` prints.  Only the
6-decimal CSV, integer edge lists and 3-decimal convergence tables are
digested, never raw floats: λ1 agrees between calls only to solver
tolerance.

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
from repro.experiments.sweeps import SweepGrid
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

CASES = [f"sweep/{backend}" for backend in BACKENDS] + [
    f"restore/{dataset}/{backend}"
    for dataset in RESTORE_DATASETS
    for backend in BACKENDS
] + [f"convergence/{dataset}" for dataset in CONVERGENCE_DATASETS]


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


def _restore_digest(dataset: str, backend: str, tmp_path: Path) -> str:
    prefix = tmp_path / f"{dataset}-{backend}"
    argv = ["restore", dataset, "--scale", "0.1", "--fraction", "0.1"]
    argv += ["--rc", "5", "--backend", backend, "--out", str(prefix)]
    assert main(argv) == 0
    return _sha256(Path(f"{prefix}.edges").read_bytes())


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
    return _restore_digest(*rest, tmp_path)


@pytest.mark.parametrize("case", CASES)
def test_golden_digest(case, tmp_path, capsys, monkeypatch, request):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
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
