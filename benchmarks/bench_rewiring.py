"""Rewiring-backend benchmark: CSR windows vs. the reference Python core.

Guards the vectorized rewiring path's reason to exist on a ``>= 1e5``-edge
graph, across the two regimes a real ``R = RC x |candidates|`` hill climb
passes through:

* **climbing** — the accept-dense opening phase right after 2K
  construction, where both backends commit thousands of swaps and the CSR
  backend's incremental window patching is stress-tested;
* **converged** — the long tail where almost every proposal is rejected.
  This regime dominates the paper-scale budget (``RC = 500`` means
  hundreds of attempts per candidate edge, almost all rejected near the
  fixed point), so it carries the headline :data:`TARGET_SPEEDUP`; the
  climbing phase has its own, lower bar.

Both phases assert *exact* backend agreement (identical reports and final
graphs for the same seed) before timing is trusted.  Results are written
as a text table and machine-readable JSON (``bench_rewiring.json``).

Knobs (environment):

    BENCH_REWIRE_NODES    nodes of the generated graph    (default 20000)
    BENCH_REWIRE_DEGREE   edges added per node            (default 6)
    BENCH_REWIRE_CLIMB    climbing-phase attempts         (default 400000)
    BENCH_REWIRE_WARMUP   warm-up attempts before the
                          converged phase                 (default 8000000)
    BENCH_REWIRE_TAIL     converged-phase attempts        (default 600000)
"""

from __future__ import annotations

import os
import time

from conftest import write_json, write_result

from repro.dk.dk_series import generate_2k
from repro.dk.rewiring import RewiringEngine
from repro.graph.generators import powerlaw_cluster_graph
from repro.metrics.clustering import degree_dependent_clustering

NODES = int(os.environ.get("BENCH_REWIRE_NODES", "20000"))
DEGREE = int(os.environ.get("BENCH_REWIRE_DEGREE", "6"))
CLIMB_ATTEMPTS = int(os.environ.get("BENCH_REWIRE_CLIMB", "400000"))
WARMUP_ATTEMPTS = int(os.environ.get("BENCH_REWIRE_WARMUP", "8000000"))
TAIL_ATTEMPTS = int(os.environ.get("BENCH_REWIRE_TAIL", "600000"))

TARGET_SPEEDUP = 5.0  # converged phase (the paper-budget-dominating regime)
CLIMB_TARGET_SPEEDUP = 1.5


def _timed_run(graph, target, backend, seed, attempts):
    engine = RewiringEngine(graph, target, rng=seed, backend=backend)
    start = time.perf_counter()
    report = engine.run(rc=10**9, max_attempts=attempts)
    return report, time.perf_counter() - start


def _assert_same(r_py, r_csr, g_py, g_csr):
    assert r_py == r_csr, (r_py, r_csr)
    for u in g_py.nodes():
        assert g_py.neighbor_multiplicities(u) == g_csr.neighbor_multiplicities(u)


def _phase(base, target, seed, attempts):
    g_py = base.copy()
    r_py, t_py = _timed_run(g_py, target, "python", seed, attempts)
    g_csr = base.copy()
    r_csr, t_csr = _timed_run(g_csr, target, "csr", seed, attempts)
    _assert_same(r_py, r_csr, g_py, g_csr)
    return {
        "attempts": attempts,
        "accepted": r_py.accepted,
        "final_distance": r_py.final_distance,
        "python_seconds": t_py,
        "csr_seconds": t_csr,
        "speedup": t_py / t_csr,
    }


def test_bench_rewiring_speedup(results_dir):
    # the paper's own shape of work: a 2K-constructed graph hill-climbed
    # toward the original's degree-dependent clustering
    original = powerlaw_cluster_graph(NODES, DEGREE, 0.1, rng=13)
    assert original.num_edges >= 100_000, "rewiring benchmark needs >= 1e5 edges"
    target = degree_dependent_clustering(original)
    base = generate_2k(original, rng=5)

    climbing = _phase(base, target, seed=3, attempts=CLIMB_ATTEMPTS)

    # drive one engine deep into the climb, then measure both backends
    # from that identical near-converged state
    warm = RewiringEngine(base.copy(), target, rng=3, backend="csr")
    warm_report = warm.run(rc=10**9, max_attempts=WARMUP_ATTEMPTS)
    converged = _phase(warm.graph, target, seed=11, attempts=TAIL_ATTEMPTS)

    payload = {
        "graph": {
            "nodes": base.num_nodes,
            "edges": base.num_edges,
            "generator": f"generate_2k(powerlaw_cluster_graph({NODES}, {DEGREE}, 0.1))",
        },
        "warmup": {
            "attempts": WARMUP_ATTEMPTS,
            "accepted": warm_report.accepted,
            "distance": warm_report.final_distance,
        },
        "target_speedup": {
            "climbing": CLIMB_TARGET_SPEEDUP,
            "converged": TARGET_SPEEDUP,
        },
        "phases": {"climbing": climbing, "converged": converged},
    }
    write_json("bench_rewiring.json", payload)

    def row(name, p):
        return (
            f"{name}\t{p['attempts']}\t{p['accepted']}"
            f"\t{p['python_seconds'] * 1e6 / p['attempts']:.2f}"
            f"\t{p['csr_seconds'] * 1e6 / p['attempts']:.2f}"
            f"\t{p['speedup']:.1f}x"
        )

    lines = [
        f"# rewiring backends (n={base.num_nodes}, m={base.num_edges}, "
        f"warmup={WARMUP_ATTEMPTS} attempts)",
        "phase\tattempts\taccepted\tpython (us/att)\tcsr (us/att)\tspeedup",
        row("climbing", climbing),
        row("converged", converged),
    ]
    write_result("bench_rewiring.txt", "\n".join(lines))

    assert climbing["speedup"] >= CLIMB_TARGET_SPEEDUP, payload
    assert converged["speedup"] >= TARGET_SPEEDUP, payload
