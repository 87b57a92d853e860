"""Frontier-kernel benchmark: BFS-based global properties vs. the
reference backends on a ``>= 1e5``-edge graph.

Two workloads, matching how the evaluation harness spends its time on the
global properties:

* **betweenness pivots** — ``betweenness_centrality`` with the harness's
  pivot sampling.  The python side runs the per-pivot reference sweeps;
  the csr side runs the batched frontier Brandes kernel.  Timed twice:
  *cold* (first touch of the graph: freeze + vectorized simplify/LCC
  prologue included) and *suite-warm* (snapshot and component caches
  already populated — the regime the 12-property suite actually runs in,
  since the shortest-path property shares both caches).  The warm number
  carries the headline :data:`TARGET_SPEEDUP`; cold has its own bar.
* **shortest-path sampling** — ``shortest_path_stats`` from the harness's
  source sample.  scipy's C Dijkstra runs one BFS per source; the csr
  side's bit-parallel BFS advances 64 sources per machine word and counts
  each level's new pairs straight into the histogram, so it must beat
  scipy by :data:`PATHS_TARGET_SPEEDUP`.

Exact backend agreement (bit-identical statistics, see
``tests/test_bfs_equivalence.py``) is asserted before any timing is
trusted.  Results are written as a text table and machine-readable JSON
(``bench_paths.json``).

Knobs (environment):

    BENCH_PATHS_NODES     nodes of the generated graph   (default 20000)
    BENCH_PATHS_DEGREE    edges added per node           (default 6)
    BENCH_PATHS_PIVOTS    betweenness pivots             (default 64)
    BENCH_PATHS_SOURCES   BFS source sample              (default 128)
"""

from __future__ import annotations

import os
import struct
import time

from conftest import write_json, write_result

from repro.engine.dispatch import _freeze_cache
from repro.graph.generators import powerlaw_cluster_graph
from repro.metrics.betweenness import betweenness_centrality
from repro.metrics.paths import shortest_path_stats

NODES = int(os.environ.get("BENCH_PATHS_NODES", "20000"))
DEGREE = int(os.environ.get("BENCH_PATHS_DEGREE", "6"))
PIVOTS = int(os.environ.get("BENCH_PATHS_PIVOTS", "64"))
SOURCES = int(os.environ.get("BENCH_PATHS_SOURCES", "128"))

TARGET_SPEEDUP = 6.0  # betweenness pivots, suite-warm caches
COLD_TARGET_SPEEDUP = 5.0  # ... including freeze + prologue from scratch
PATHS_TARGET_SPEEDUP = 5.0  # bit-parallel BFS vs one scipy BFS per source

SEED = 5


def _assert_same_scores(py: dict, cs: dict) -> None:
    assert set(py) == set(cs)
    for u in py:
        assert struct.pack("<d", py[u]) == struct.pack("<d", cs[u]), (
            u,
            py[u],
            cs[u],
        )


def _timed(fn, repeats: int = 2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_bench_paths(results_dir):
    graph = powerlaw_cluster_graph(NODES, DEGREE, 0.25, rng=3)
    assert graph.num_edges >= 100_000

    # -- betweenness pivots ------------------------------------------------
    py_b, t_py_b = _timed(
        lambda: betweenness_centrality(
            graph, num_pivots=PIVOTS, rng=SEED, backend="python"
        )
    )

    def csr_cold():
        _freeze_cache.clear()  # drop the snapshot (and its component cache)
        return betweenness_centrality(
            graph, num_pivots=PIVOTS, rng=SEED, backend="csr"
        )

    cs_b, t_cs_b_cold = _timed(csr_cold)
    _assert_same_scores(py_b, cs_b)
    cs_b_warm, t_cs_b_warm = _timed(
        lambda: betweenness_centrality(
            graph, num_pivots=PIVOTS, rng=SEED, backend="csr"
        )
    )
    _assert_same_scores(py_b, cs_b_warm)

    # -- shortest-path sampling -------------------------------------------
    py_p, t_py_p = _timed(
        lambda: shortest_path_stats(
            graph, num_sources=SOURCES, rng=SEED, backend="python"
        )
    )
    cs_p, t_cs_p = _timed(
        lambda: shortest_path_stats(
            graph, num_sources=SOURCES, rng=SEED, backend="csr"
        )
    )
    assert py_p == cs_p

    warm_speedup = t_py_b / t_cs_b_warm
    cold_speedup = t_py_b / t_cs_b_cold
    paths_speedup = t_py_p / t_cs_p
    payload = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "betweenness": {
            "pivots": PIVOTS,
            "python_seconds": t_py_b,
            "csr_cold_seconds": t_cs_b_cold,
            "csr_warm_seconds": t_cs_b_warm,
            "cold_speedup": cold_speedup,
            "warm_speedup": warm_speedup,
            "target_warm_speedup": TARGET_SPEEDUP,
            "target_cold_speedup": COLD_TARGET_SPEEDUP,
        },
        "shortest_paths": {
            "sources": SOURCES,
            "python_seconds": t_py_p,
            "csr_seconds": t_cs_p,
            "speedup": paths_speedup,
            "target_speedup": PATHS_TARGET_SPEEDUP,
        },
    }
    write_json("bench_paths.json", payload)
    write_result(
        "bench_paths.txt",
        "\n".join(
            [
                f"# frontier BFS kernels, n={graph.num_nodes} m={graph.num_edges}",
                "workload\tpython\tcsr\tspeedup",
                f"betweenness x{PIVOTS} (cold)\t{t_py_b:.2f}s"
                f"\t{t_cs_b_cold:.2f}s\t{cold_speedup:.1f}x",
                f"betweenness x{PIVOTS} (warm)\t{t_py_b:.2f}s"
                f"\t{t_cs_b_warm:.2f}s\t{warm_speedup:.1f}x",
                f"paths x{SOURCES}\t{t_py_p:.2f}s\t{t_cs_p:.2f}s"
                f"\t{paths_speedup:.1f}x",
            ]
        ),
    )

    assert warm_speedup >= TARGET_SPEEDUP, payload["betweenness"]
    assert cold_speedup >= COLD_TARGET_SPEEDUP, payload["betweenness"]
    assert paths_speedup >= PATHS_TARGET_SPEEDUP, payload["shortest_paths"]
