"""Engine benchmark: CSR kernels vs. the pure-Python reference path.

Guards the engine's reason to exist: on a generated social-like graph with
``>= 10^5`` edges, the vectorized kernels must beat the reference
implementations by at least :data:`TARGET_SPEEDUP` on joint-degree-matrix
construction and on average local clustering, while producing identical
values.  Results are written both as a text table and as machine-readable
JSON (``bench_engine.json``) so regressions are diffable.

Knobs (environment):

    BENCH_ENGINE_NODES   nodes of the generated graph   (default 20000)
    BENCH_ENGINE_DEGREE  edges added per node           (default 6)
"""

from __future__ import annotations

import math
import os
import time

from conftest import write_json, write_result

from repro.engine import freeze
from repro.engine import kernels
from repro.graph.generators import powerlaw_cluster_graph
from repro.metrics import basic, clustering

ENGINE_NODES = int(os.environ.get("BENCH_ENGINE_NODES", "20000"))
ENGINE_DEGREE = int(os.environ.get("BENCH_ENGINE_DEGREE", "6"))
TARGET_SPEEDUP = 5.0
REPEATS = 3


def _graph():
    g = powerlaw_cluster_graph(ENGINE_NODES, ENGINE_DEGREE, 0.1, rng=13)
    # keep the multigraph paths honest: carry a loop and a parallel edge
    g.add_edge(0, 0)
    g.add_edge(1, 2)
    g.add_edge(1, 2)
    assert g.num_edges >= 100_000, "engine benchmark needs >= 1e5 edges"
    return g


def _best(fn, repeats: int = REPEATS) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_engine_speedup(results_dir):
    graph = _graph()

    freeze_seconds = _best(lambda: freeze(graph), repeats=1)

    # --- joint degree matrix -----------------------------------------
    python_jdm = _best(lambda: basic.joint_degree_matrix(graph))
    snapshots = [freeze(graph) for _ in range(REPEATS)]
    csr_jdm = _best(lambda: kernels.joint_degree_matrix(snapshots[0]))
    assert kernels.joint_degree_matrix(snapshots[0]) == basic.joint_degree_matrix(
        graph
    )

    # --- average local clustering ------------------------------------
    # cold snapshots: each timed call pays adjacency construction and the
    # oriented triangle products, so the comparison is per-call honest
    python_clustering = _best(lambda: clustering.network_clustering(graph))
    it = iter(snapshots)
    csr_clustering = _best(lambda: kernels.network_clustering(next(it)))
    assert math.isclose(
        kernels.network_clustering(snapshots[0]),
        clustering.network_clustering(graph),
        rel_tol=1e-12,
    )
    # warm path: the snapshot's triangle cache makes the companion metric
    # nearly free (the python path recomputes the matrix product)
    python_degree_clustering = _best(
        lambda: clustering.degree_dependent_clustering(graph)
    )
    warm_degree_clustering = _best(
        lambda: kernels.degree_dependent_clustering(snapshots[0])
    )

    jdm_speedup = python_jdm / csr_jdm
    clustering_speedup = python_clustering / csr_clustering
    warm_speedup = python_degree_clustering / warm_degree_clustering

    payload = {
        "graph": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "generator": f"powerlaw_cluster_graph({ENGINE_NODES}, {ENGINE_DEGREE}, 0.1)",
        },
        "freeze_seconds": freeze_seconds,
        "target_speedup": TARGET_SPEEDUP,
        "kernels": {
            "joint_degree_matrix": {
                "python_seconds": python_jdm,
                "csr_seconds": csr_jdm,
                "speedup": jdm_speedup,
            },
            "network_clustering": {
                "python_seconds": python_clustering,
                "csr_seconds": csr_clustering,
                "speedup": clustering_speedup,
            },
            "degree_dependent_clustering_warm": {
                "python_seconds": python_degree_clustering,
                "csr_seconds": warm_degree_clustering,
                "speedup": warm_speedup,
            },
        },
    }
    write_json("bench_engine.json", payload)

    lines = [
        f"# engine kernels vs python reference "
        f"(n={graph.num_nodes}, m={graph.num_edges})",
        f"freeze once: {freeze_seconds * 1e3:.1f} ms",
        "kernel\tpython (ms)\tcsr (ms)\tspeedup",
        f"m(k,k')\t{python_jdm * 1e3:.1f}\t{csr_jdm * 1e3:.1f}\t{jdm_speedup:.1f}x",
        f"cbar\t{python_clustering * 1e3:.1f}\t{csr_clustering * 1e3:.1f}"
        f"\t{clustering_speedup:.1f}x",
        f"c(k) warm\t{python_degree_clustering * 1e3:.1f}"
        f"\t{warm_degree_clustering * 1e3:.1f}\t{warm_speedup:.1f}x",
    ]
    write_result("bench_engine.txt", "\n".join(lines))

    assert jdm_speedup >= TARGET_SPEEDUP, payload
    assert clustering_speedup >= TARGET_SPEEDUP, payload
