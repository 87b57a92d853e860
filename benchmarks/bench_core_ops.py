"""Microbenchmarks of the hot code paths.

Not a paper table — these guard the implementation's performance envelope:
rewiring throughput (the bottleneck the paper optimizes), estimator cost,
stub-matching construction, and the evaluation suite itself.  The
threshold-calibration test at the bottom measures, for the one kernel
whose ``auto`` dispatch still compares a size, where the CSR path breaks
even with the pure Python one: the attempt budget of the rewiring core,
the data behind the ``rewiring`` entry of
:data:`repro.engine.dispatch.AUTO_KERNEL_THRESHOLDS`.  Every property
kernel runs on CSR under ``auto`` at any size; ``bench_auto_dispatch.py``
guards that rule on a whole sweep.
"""

from __future__ import annotations

import math
import time

from conftest import BENCH_EVAL, BENCH_SCALE, write_json, write_result

from repro.dk.dk_series import generate_2k
from repro.dk.rewiring import RewiringEngine
from repro.estimators.local import estimate_local_properties
from repro.graph.datasets import load_dataset
from repro.graph.generators import powerlaw_cluster_graph
from repro.metrics.clustering import degree_dependent_clustering
from repro.metrics.suite import compute_properties
from repro.restore.restorer import restore_from_walk
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import random_walk


def _graph():
    return load_dataset("anybeat", scale=BENCH_SCALE)


def test_bench_random_walk(benchmark):
    graph = _graph()

    def run():
        return random_walk(GraphAccess(graph), graph.num_nodes // 10, rng=1)

    walk = benchmark(run)
    assert walk.length >= graph.num_nodes // 10


def test_bench_estimators(benchmark):
    graph = _graph()
    walk = random_walk(GraphAccess(graph), graph.num_nodes // 10, rng=2)
    est = benchmark(estimate_local_properties, walk)
    assert est.num_nodes > 0


def test_bench_rewiring_throughput(benchmark):
    graph = _graph()
    target = degree_dependent_clustering(graph)

    def run():
        g = graph.copy()
        engine = RewiringEngine(g, target, rng=3)
        # fixed 20k attempts regardless of candidate count
        return engine.run(rc=10**9, max_attempts=20_000)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.attempts > 0


def test_bench_full_restoration(benchmark):
    graph = _graph()
    walk = random_walk(GraphAccess(graph), graph.num_nodes // 10, rng=4)
    result = benchmark.pedantic(
        lambda: restore_from_walk(walk, rc=5, rng=4), rounds=1, iterations=1
    )
    assert result.graph.num_nodes > 0


def test_bench_property_suite(benchmark):
    graph = _graph()
    props = benchmark.pedantic(
        lambda: compute_properties(graph, BENCH_EVAL), rounds=1, iterations=1
    )
    assert props.num_nodes == graph.num_nodes


# ----------------------------------------------------------------------
# AUTO threshold calibration: the kernel that still compares a size
# ----------------------------------------------------------------------
#: Rewiring is calibrated on its attempt budget ``rc x |edges|``, over
#: several coefficients: the CSR core pays construction once and, per
#: accepted swap, a scalar replay of each window row the swap made stale,
#: so its break-even budget moves with the share of attempts accepted,
#: which differs between coefficients at the same budget.  The paper's
#: rc = 500 is too slow for a calibration run; budgets stop at the cap
#: below.
REWIRING_RCS = (1, 5, 10, 50)
REWIRING_SIZES = (100, 200, 300, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000)
REWIRING_MAX_ATTEMPTS = 250_000


def _best_of(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _calibration_graph(edges: int):
    n = max(20, edges // 3)
    return powerlaw_cluster_graph(n, 3, 0.1, rng=edges)


def _rewiring_row(base, target, rc: float) -> dict:
    """Both cores rewiring a copy of ``base`` at ``rc``, construction included."""
    reports = []

    def rewire(backend):
        engine = RewiringEngine(base.copy(), target, rng=2, backend=backend)
        reports.append(engine.run(rc=rc))

    return {
        "rc": rc,
        "edges": base.num_edges,
        "python_seconds": _best_of(lambda: rewire("python")),
        "csr_seconds": _best_of(lambda: rewire("csr")),
        "attempts": reports[-1].attempts,
        "accepted": reports[-1].accepted,
    }


def _rewiring_calibration() -> list[dict]:
    """Rewiring rows for every size and :data:`REWIRING_RCS` coefficient.

    The pipeline's workload shape: a 2K-constructed graph climbing toward
    the original's clustering, at every budget within
    :data:`REWIRING_MAX_ATTEMPTS`.
    """
    rows = []
    for edges in REWIRING_SIZES:
        graph = _calibration_graph(edges)
        target = degree_dependent_clustering(graph)
        base = generate_2k(graph, rng=7)
        rows += [
            _rewiring_row(base, target, rc)
            for rc in REWIRING_RCS
            if rc * graph.num_edges <= REWIRING_MAX_ATTEMPTS
        ]
    return rows


def _break_even(rows: list[dict]) -> dict | None:
    """The smallest budget from which csr wins at every larger budget.

    One row where csr happens to win between python wins is timing noise
    around the crossing, not a break-even, so the break-even is where the
    trailing run of csr wins starts.  Its ``margin`` is the python/csr
    time ratio at that budget.  ``None`` when python wins the largest
    budget.
    """
    start = None
    for row in sorted(rows, key=lambda row: row["attempts"]):
        if row["csr_seconds"] > row["python_seconds"]:
            start = None
        elif start is None:
            start = row
    if start is None:
        return None
    return {
        "attempts": start["attempts"],
        "margin": start["python_seconds"] / start["csr_seconds"],
    }


def test_bench_auto_threshold_calibration(results_dir):
    """Measure the break-even of the one kernel ``auto`` still thresholds.

    Rewiring is timed end to end per coefficient
    (:func:`_rewiring_calibration`), construction included, and its
    break-even is an attempt budget (:func:`_break_even`).  The committed
    JSON is the provenance of the ``rewiring`` entry of
    ``AUTO_KERNEL_THRESHOLDS`` in ``repro/engine/dispatch.py``.
    """
    rewiring = _rewiring_calibration()
    rewiring_break_even = {
        str(rc): _break_even([row for row in rewiring if row["rc"] == rc])
        for rc in REWIRING_RCS
    }
    payload = {
        "rewiring": {
            "rcs": list(REWIRING_RCS),
            "sizes": list(REWIRING_SIZES),
            "max_attempts": REWIRING_MAX_ATTEMPTS,
            "measured": rewiring,
            "break_even": rewiring_break_even,
        },
    }
    write_json("bench_core_ops_thresholds.json", payload)

    lines = [
        "# rewiring break-even per coefficient (construction included):",
        "# the smallest budget from which csr wins at every larger budget,",
        "# and csr's speedup over python there",
        "rc\tbreak-even attempts\tmargin",
    ]
    for rc, even in rewiring_break_even.items():
        if even is None:
            lines.append(f"{rc}\t> max budget\t-")
        else:
            lines.append(f"{rc}\t{even['attempts']}\t{even['margin']:.2f}x")
    write_result("bench_core_ops_thresholds.txt", "\n".join(lines))

    # the csr rewiring core must win at every coefficient's largest budget,
    # the regime the engine exists for
    for rc in REWIRING_RCS:
        last = [row for row in rewiring if row["rc"] == rc][-1]
        assert last["csr_seconds"] <= last["python_seconds"] * 1.1, ("rewiring", last)
