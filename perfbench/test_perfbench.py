"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import END, NAME, OP, PARENT, START, THREAD  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent=-1):
    record = [None] * 6
    record[NAME], record[START], record[END] = name, start, end
    record[PARENT], record[OP], record[THREAD] = parent, "op", 1
    return record


def test_self_time_subtracts_nested_and_back_to_back_children():
    spans = [
        _span("root", 0.0, 10.0),  # 0
        _span("a", 1.0, 3.0, parent=0),  # 1: back to back with 2
        _span("b", 3.0, 6.0, parent=0),  # 2
        _span("b.inner", 4.0, 5.0, parent=2),  # 3: nested in b
        _span("c", 8.0, 9.5, parent=0),  # 4
        _span("open", 9.0, None, parent=0),  # 5: never closed
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 2.0, 1.0, 1.5, 0.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 4.0),
        _span("x", 1.0, 3.0, parent=0),
        _span("y", 2.0, 3.5, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_per_thread_parent_stacks():
    import threading

    tracer = tracing.Tracer()
    outer = tracer.begin("bench.unit", op="u")
    seen = {}

    def worker():
        seen["index"] = tracer.begin("service.compute", op="k")
        tracer.end(seen["index"])

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    inner = tracer.begin("graph.load")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans[seen["index"]][PARENT] == -1
    assert tracer.spans[inner][PARENT] == outer
    assert tracer.spans[inner][OP] == "u"


@pytest.mark.parametrize("parent_only", [False, True])
def test_every_wrapper_is_restored(parent_only):
    import repro.graph.datasets as datasets
    from repro.metrics.suite import EvaluationConfig
    from repro.experiments import runner

    tracer = tracing.Tracer()
    patches = tracing.install(tracer, parent_only=parent_only)
    targets = patches.targets
    assert targets
    for module, attr, original in targets:
        assert getattr(module, attr) is not original
    graph = datasets.load_dataset("anybeat", scale=0.05)
    if not parent_only:
        runner.compute_properties(graph, EvaluationConfig())
    recorded = len(tracer.spans)
    assert recorded > 0
    patches.restore()
    for module, attr, original in targets:
        assert getattr(module, attr) is original
    datasets.load_dataset("anybeat", scale=0.05)
    runner.compute_properties(graph, EvaluationConfig())
    assert len(tracer.spans) == recorded


def test_scaling_follows_the_probed_speed():
    # probes of 2 ms in [0, 1) and 0.5 ms in [1, 2): the probe ran at half,
    # then at twice the reference speed
    probes = [[t / 10, 0.002, 0] for t in range(10)] + [[1 + t / 10, 0.0005, 0] for t in range(10)]
    slow, fast = 0.5**speed.EXPONENT, 2.0**speed.EXPONENT
    assert speed.factor((0.0, 0.95), probes) == pytest.approx(slow)
    assert speed.scaled(3.0, (1.0, 1.95), probes) == pytest.approx(3.0 * fast)
    assert speed.factor((0.0, 1.95), probes) == pytest.approx((slow + fast) / 2)
    # a window with too few probes borrows the nearest ones
    assert speed.factor((0.45, 0.46), probes) == pytest.approx(slow)
    assert speed.factor((0.91, 0.92), probes) == pytest.approx((slow + slow + fast) / 3)
    assert speed.factor((5.0, 5.0), probes) == pytest.approx(fast)


def test_hits_a_probe_preempted_are_dropped():
    probes = [[1.0, 0.001, 0], [2.0, 0.001, 0]]
    assert speed.overlaps(0.9995, 0.001, probes)
    assert speed.overlaps(1.0009, 0.0001, probes)
    assert not speed.overlaps(1.0011, 0.0005, probes)
    assert not speed.overlaps(0.5, 0.0004, probes)
    block = [[0.99, 0.2], [0.9995, 5.0], [1.01, 0.4]]
    assert run.scaled_hits(block, probes) == pytest.approx([0.2, 0.4])


def test_failed_check_makes_the_run_incorrect():
    rep = {
        "traced": False,
        "unit_s": 1.0,
        "setup_s": 0.5,
        "peak_rss_mb": 10.0,
        "attempted": 6,
        "failed": 0,
        "failures": [],
        "values": {"quality.avg_l1": 0.3, "quality.rewire_l1": 0.4},
        "windows": {"setup": [0.0, 0.45], "unit": [0.45, 1.45]},
        "samples": {"restore": [[0.6, 0.8, 0.2]], "hits": [[[1.25, 0.01]]]},
        "digest": "a",
    }
    # probes on a second CPU scale the unit but not set-up or hits
    probes = [[0.1 * t, 0.001 if t % 2 else 0.002, t % 2] for t in range(20)]
    rep["scaled"] = run.scale(rep, probes, 1)
    assert rep["scaled"]["setup_s"] == pytest.approx(0.5)
    assert rep["scaled"]["wall_s"] == pytest.approx((1 + 0.5**speed.EXPONENT) / 2)
    assert rep["scaled"]["hit_ms"] == [[pytest.approx(0.01)]]
    good = run.aggregate("cell", "tiny", [rep, dict(rep)], None, [0.5])
    assert good["correct"] and good["failed"] == 0
    bad = run.aggregate("cell", "tiny", [rep, dict(rep, digest="b")], None, [0.5])
    assert not bad["correct"] and bad["failed"] == bad["attempted"]


def _bench(*args, cwd=ROOT, env=None, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cell", "serve-restore", "sweep-pool"])
def test_smoke_tiny_shapes(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--shape", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _bench("--workload", "cell", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_refuses_a_backend_override():
    env = dict(os.environ, REPRO_BACKEND="csr")
    proc = _bench("--workload", "cell", "--seed", "1", "--seconds", "1", env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
