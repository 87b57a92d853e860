"""Paper-scale restoration: one youtube restore per scale, phase by phase.

The dataset stand-ins hold 1-20 % of the paper's node counts; the youtube
stand-in at scale 50 holds 500 000 nodes, 44 % of the paper's.  This
bench runs one ``restore_graph`` of the youtube stand-in at each scale
(fraction 0.1, rc 50, seed 1), each in a fresh subprocess, and records
the dataset load seconds, every stopwatch phase of the restore and the
child's ``ru_maxrss``.  It shows which phase grows fastest with the graph
and whether memory or time limits a paper-scale run.

Opt-in and kept out of CI: the two restores take minutes and ~1 GB of
memory.  Set ``BENCH_PAPER_SCALE=1`` to run; the bench skips otherwise.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest
from conftest import write_json

SCALES = (10.0, 50.0)
FRACTION = 0.1
RC = 50.0
SEED = 1

_REPO = pathlib.Path(__file__).resolve().parent.parent

_CHILD = """
import json, resource, sys, time
from repro.graph.datasets import load_dataset
from repro.restore.restorer import restore_graph
from repro.sampling.access import GraphAccess

scale, fraction, rc, seed = float(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
start = time.perf_counter()
graph = load_dataset("youtube", scale=scale)
load_s = time.perf_counter() - start
target = max(3, int(round(fraction * graph.num_nodes)))
result = restore_graph(GraphAccess(graph), target, rc=rc, rng=seed)
print(json.dumps({
    "scale": scale,
    "nodes": graph.num_nodes,
    "edges": graph.num_edges,
    "k_max": result.degree_targets.k_max,
    "load_s": load_s,
    "phase_s": result.stopwatch.splits(),
    "restore_s": result.total_seconds,
    "rewiring_attempts": result.rewiring.attempts,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def _run_scale(scale: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    env.pop("REPRO_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(scale), str(FRACTION), str(RC), str(SEED)],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    os.environ.get("BENCH_PAPER_SCALE") != "1",
    reason="paper-scale restores take minutes; set BENCH_PAPER_SCALE=1",
)
def test_bench_paper_scale(results_dir):
    runs = [_run_scale(scale) for scale in SCALES]
    lines = ["youtube restores (fraction 0.1, rc 50, seed 1), plain seconds:"]
    for run in runs:
        phases = run["phase_s"]
        assert run["restore_s"] > 0.0 and run["peak_rss_mb"] > 0.0
        assert {"degree_vector", "joint_degree_matrix", "rewiring"} <= set(phases)
        lines.append(
            f"  scale {run['scale']:g}: {run['nodes']} nodes, k*_max {run['k_max']}, "
            f"load {run['load_s']:.1f} s, degree vector {phases['degree_vector']:.2f} s, "
            f"target JDM {phases['joint_degree_matrix']:.2f} s, "
            f"restore {run['restore_s']:.1f} s, peak RSS {run['peak_rss_mb']:.0f} MB"
        )
    print("\n".join(lines))
    write_json(
        "bench_paper_scale.json",
        {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "fraction": FRACTION,
            "rc": RC,
            "seed": SEED,
            "runs": runs,
        },
    )
