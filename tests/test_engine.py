"""Unit tests for the array engine: CSR snapshots, kernels, dispatch, access."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CSRGraph,
    ensure_csr,
    freeze,
    resolve_backend,
    thaw,
)
from repro.engine import kernels
from repro.errors import EngineError, GraphError, SamplingError
from repro.graph.generators import complete_graph
from repro.graph.multigraph import MultiGraph
from repro.metrics import basic, clustering
from repro.metrics.spectral import largest_eigenvalue
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import random_walk


# ----------------------------------------------------------------------
# CSR structure
# ----------------------------------------------------------------------
def test_freeze_layout_matches_edge_slots(multigraph_with_parallels):
    g = multigraph_with_parallels
    csr = freeze(g)
    assert csr.num_nodes == g.num_nodes
    assert csr.num_edges == g.num_edges
    assert csr.indices.shape[0] == 2 * g.num_edges
    for u in g.nodes():
        assert csr.degree(u) == g.degree(u)
        assert sorted(csr.incident_edge_endpoints(u), key=repr) == sorted(
            g.incident_edge_endpoints(u), key=repr
        )


def test_freeze_arrays_are_read_only(triangle):
    csr = freeze(triangle)
    with pytest.raises(ValueError):
        csr.indices[0] = 0
    with pytest.raises(ValueError):
        csr.indptr[0] = 1


def test_freeze_empty_graph():
    csr = freeze(MultiGraph())
    assert csr.num_nodes == 0 and csr.num_edges == 0
    assert thaw(csr).num_nodes == 0


def test_thaw_roundtrip_preserves_multiplicities(multigraph_with_parallels):
    g = multigraph_with_parallels
    t = thaw(freeze(g))
    assert list(t.nodes()) == list(g.nodes())
    assert t.num_edges == g.num_edges
    for u in g.nodes():
        assert t.neighbor_multiplicities(u) == g.neighbor_multiplicities(u)


def test_adjacency_matrix_convention(multigraph_with_parallels):
    g = multigraph_with_parallels
    a = freeze(g).adjacency_matrix()
    nodes = list(g.nodes())
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            assert a[i, j] == g.multiplicity(u, v)
    no_loops = freeze(g).adjacency_matrix(drop_loops=True)
    assert no_loops.diagonal().sum() == 0


def test_csr_rejects_inconsistent_arrays():
    with pytest.raises(GraphError):
        CSRGraph(
            (0, 1),
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            num_edges=2,  # slot count says 1 edge
        )


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def test_kernels_match_reference_on_k4(k4):
    csr = freeze(k4)
    assert kernels.degree_vector(csr) == basic.degree_vector(k4)
    assert kernels.joint_degree_matrix(csr) == basic.joint_degree_matrix(k4)
    assert kernels.triangles_per_node(csr) == clustering.triangles_per_node(k4)
    assert kernels.network_clustering(csr) == pytest.approx(1.0)


def test_jdm_kernel_counts_loops_once():
    g = MultiGraph()
    g.add_edge(0, 0)  # loop at a degree-2 node
    g.add_edge(1, 2)
    csr = freeze(g)
    assert kernels.joint_degree_matrix(csr) == basic.joint_degree_matrix(g)
    assert kernels.joint_degree_matrix(csr)[(2, 2)] == 1


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def test_resolve_backend_auto_threshold():
    # with no kernel named there is no threshold: auto is csr at any size
    assert resolve_backend("auto", size=1) == "csr"
    assert resolve_backend("auto") == "csr"
    assert resolve_backend("python", size=10**9) == "python"
    assert resolve_backend("csr", size=1) == "csr"


def test_resolve_backend_rejects_unknown():
    with pytest.raises(EngineError):
        resolve_backend("gpu")


def test_resolve_backend_per_kernel_thresholds():
    from repro.engine import AUTO_KERNEL_THRESHOLDS

    assert AUTO_KERNEL_THRESHOLDS == {"rewiring": 20_000}
    for kernel, threshold in AUTO_KERNEL_THRESHOLDS.items():
        assert resolve_backend("auto", size=threshold - 1, kernel=kernel) == (
            "python"
        )
        assert resolve_backend("auto", size=threshold, kernel=kernel) == "csr"
        assert resolve_backend("auto", kernel=kernel) == "python"  # size unknown
    # a kernel without an entry has no threshold to reach
    assert (
        resolve_backend("auto", size=1, kernel="mystery")  # reprolint: disable=REP302 unlisted-kernel path under test
        == "csr"
    )


def test_rewiring_engine_backend_resolution(social_graph):
    # auto keys the rewiring core on the run's attempt budget
    # (rc x |candidates|, capped by max_attempts), not on the edge count
    from repro.dk.rewiring import RewiringEngine
    from repro.engine import AUTO_KERNEL_THRESHOLDS

    threshold = AUTO_KERNEL_THRESHOLDS["rewiring"]
    m = social_graph.num_edges
    assert m < threshold  # the graph's size alone never reaches the threshold
    target = clustering.degree_dependent_clustering(social_graph)
    large_rc = 1.5 * threshold / m  # budget 1.5x the threshold

    def resolved(backend="auto", protected_edges=None, **run):
        engine = RewiringEngine(
            social_graph.copy(), target, protected_edges=protected_edges,
            rng=0, backend=backend,
        )
        assert engine.backend is None  # chosen by run(), not at construction
        engine.run(**run)
        return engine.backend

    assert resolved(rc=1) == "python"
    assert resolved(rc=large_rc) == "csr"
    assert resolved(rc=large_rc, max_attempts=threshold - 1) == "python"
    # protecting half the edges halves the candidates and so the budget
    canon = sorted({(min(u, v), max(u, v)) for u, v in social_graph.edges()})
    assert resolved(protected_edges=set(canon[: m // 2]), rc=large_rc) == "python"
    # an explicit backend still wins over the budget
    assert resolved("csr", rc=1) == "csr"
    assert resolved("python", rc=large_rc) == "python"


def test_rewiring_core_resolved_once(social_graph, monkeypatch):
    # a read before run() builds the core for the default budget
    # (500 x |candidates|); later runs reuse it and never resolve again
    import repro.dk.rewiring as rewiring

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["size"])
        return resolve_backend(*args, **kwargs)

    monkeypatch.setattr(rewiring, "resolve_backend", counted)
    target = clustering.degree_dependent_clustering(social_graph)
    engine = rewiring.RewiringEngine(social_graph.copy(), target, rng=0)
    initial = engine.distance
    assert engine.backend == "csr"
    assert calls == [rewiring.DEFAULT_REWIRING_COEFFICIENT * engine.num_candidates]
    report = engine.run(rc=1)
    engine.run(rc=1)
    assert report.initial_distance == initial
    assert engine.backend == "csr" and len(calls) == 1


@pytest.mark.parametrize("backend", ["python", "csr", "auto"])
def test_short_circuited_rewiring_reports_no_attempts(backend):
    # the climb cannot move with an all-zero target or a single candidate:
    # no attempt is made, so none may be reported, and auto stays on python
    from repro.dk.rewiring import RewiringEngine

    triangle_tail = [(0, 1), (1, 2), (2, 0), (2, 3)]
    cases = (
        (MultiGraph.from_edges(triangle_tail), {2: 0.0, 3: 0.0}),
        (MultiGraph.from_edges([(0, 1)]), {1: 0.5}),
    )
    for graph, target in cases:
        engine = RewiringEngine(graph, target, rng=1, backend=backend)
        report = engine.run(rc=10**6)
        assert (report.attempts, report.accepted) == (0, 0)
        assert engine.backend == ("python" if backend == "auto" else backend)


def test_dispatch_routes_both_backends(social_graph):
    py = basic.joint_degree_matrix(social_graph, backend="python")
    cs = basic.joint_degree_matrix(social_graph, backend="csr")
    assert py == cs
    assert basic.degree_vector(social_graph, backend="csr") == basic.degree_vector(
        social_graph
    )
    assert clustering.network_clustering(social_graph, backend="csr") == pytest.approx(
        clustering.network_clustering(social_graph), rel=1e-12, abs=1e-12
    )


def test_dispatch_accepts_frozen_input(social_graph):
    csr = freeze(social_graph)
    assert basic.joint_degree_matrix(csr, backend="auto") == basic.joint_degree_matrix(
        social_graph
    )


@pytest.mark.parametrize(
    "fn",
    [
        basic.degree_vector,
        basic.joint_degree_matrix,
        basic.neighbor_connectivity,
        clustering.triangles_per_node,
        clustering.network_clustering,
        clustering.degree_dependent_clustering,
        clustering.shared_partner_distribution,
        largest_eigenvalue,
    ],
    ids=lambda fn: fn.__name__,
)
def test_python_backend_rejects_a_snapshot(fn, social_graph):
    # the reference bodies read a MultiGraph only; a snapshot sent there
    # fails naming the backend, not deep inside the body
    with pytest.raises(EngineError, match="'python'"):
        fn(freeze(social_graph), backend="python")


@pytest.mark.parametrize("backend, decisions", [("python", 0), ("auto", 8)])
def test_one_decision_per_switched_property(backend, decisions, monkeypatch):
    # an explicit python makes no decision; any other backend makes one
    # per property that switches (8 of the 12; n and kbar are graph reads)
    import repro.engine.dispatch as dispatch
    from repro.metrics.suite import EvaluationConfig, compute_properties

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return resolve_backend(*args, **kwargs)

    monkeypatch.setattr(dispatch, "resolve_backend", counted)
    compute_properties(complete_graph(5), EvaluationConfig(backend=backend))
    assert len(calls) == decisions


def test_metrics_backend_param_delegates(social_graph):
    assert basic.joint_degree_matrix(
        social_graph, backend="csr"
    ) == basic.joint_degree_matrix(social_graph)
    assert clustering.degree_dependent_clustering(
        social_graph, backend="csr"
    ) == pytest.approx(clustering.degree_dependent_clustering(social_graph))


def test_freeze_cache_invalidated_by_mutation(social_graph):
    first = ensure_csr(social_graph)
    assert ensure_csr(social_graph) is first  # cached
    social_graph.add_edge(0, 1)
    second = ensure_csr(social_graph)
    assert second is not first
    assert second.num_edges == first.num_edges + 1


# ----------------------------------------------------------------------
# the access model over a snapshot (what pooled workers crawl)
# ----------------------------------------------------------------------
def test_csr_access_serves_existing_walkers(social_graph):
    """A walk through ``GraphAccess`` over the frozen snapshot is the
    walk over the MultiGraph: same nodes, same neighbor lists."""
    access = GraphAccess(freeze(social_graph))
    walk = random_walk(access, target_queried=30, rng=9)
    reference = random_walk(GraphAccess(social_graph), target_queried=30, rng=9)
    assert walk.length >= 30
    assert access.num_queried >= 30
    assert walk.nodes == reference.nodes
    assert walk.neighbors == reference.neighbors
    for node, nbrs in walk.neighbors.items():
        assert sorted(nbrs, key=repr) == sorted(
            social_graph.incident_edge_endpoints(node), key=repr
        )


def test_csr_access_enforces_budget(social_graph):
    access = GraphAccess(freeze(social_graph), budget=5)
    with pytest.raises(SamplingError):
        random_walk(access, target_queried=50, rng=3)
    assert access.num_queried == 5


def test_csr_access_accepts_prefrozen(social_graph):
    """Seed draws over a snapshot match the MultiGraph's: both list the
    nodes in insertion order, so the harness may crawl either."""
    csr = freeze(social_graph)
    access = GraphAccess(csr)
    seed = access.random_seed(7)
    assert social_graph.has_node(seed)
    assert seed == GraphAccess(social_graph).random_seed(7)
    assert access.hidden_graph_num_nodes == social_graph.num_nodes


# ----------------------------------------------------------------------
# satellite: copy() subclass behavior
# ----------------------------------------------------------------------
def test_copy_preserves_subclass_type():
    class Tagged(MultiGraph):
        pass

    g = Tagged()
    g.add_edge(0, 1)
    c = g.copy()
    assert type(c) is Tagged
    assert c.num_edges == 1


def test_copy_of_complete_graph_matches():
    g = complete_graph(5)
    c = g.copy()
    assert type(c) is MultiGraph
    assert basic.joint_degree_matrix(c) == basic.joint_degree_matrix(g)


def test_version_counter_tracks_mutations():
    g = MultiGraph()
    v0 = g.version
    g.add_edge(0, 1)
    assert g.version > v0
    v1 = g.version
    g.remove_edge(0, 1)
    v2 = g.version
    assert v2 > v1
    g.add_node(0)  # already present: no structural change
    assert g.version == v2


def test_auto_backend_picks_csr_for_large_graphs(monkeypatch):
    # every property kernel resolves to csr under auto, down to one edge;
    # they name no kernel, so no threshold applies
    import repro.engine.dispatch as dispatch
    from repro.engine import AUTO_KERNEL_THRESHOLDS
    from repro.metrics.betweenness import betweenness_centrality
    from repro.metrics.paths import eccentricity_lower_bound, shortest_path_stats

    decisions = []

    def recorded(*args, **kwargs):
        choice = resolve_backend(*args, **kwargs)
        decisions.append((kwargs.get("kernel"), choice))
        return choice

    monkeypatch.setattr(dispatch, "resolve_backend", recorded)
    kernels_under_test = (
        basic.degree_vector,
        basic.degree_distribution,
        basic.joint_degree_matrix,
        basic.joint_degree_distribution,
        clustering.triangles_per_node,
        clustering.network_clustering,
        clustering.degree_dependent_clustering,
        basic.neighbor_connectivity,
        clustering.shared_partner_distribution,
        largest_eigenvalue,
        shortest_path_stats,
        eccentricity_lower_bound,
        betweenness_centrality,
    )
    g = MultiGraph.from_edges([(0, 1)])
    for fn in kernels_under_test:
        fn(g, backend="auto")
    assert decisions == [(None, "csr")] * len(kernels_under_test)
    # the table's entry still compares its size
    for kernel, threshold in AUTO_KERNEL_THRESHOLDS.items():
        assert resolve_backend("auto", size=1, kernel=kernel) == "python"
        assert resolve_backend("auto", size=threshold, kernel=kernel) == "csr"
