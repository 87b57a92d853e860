"""Unit tests for the array engine: CSR snapshots, kernels, dispatch, access."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    AUTO_EDGE_THRESHOLD,
    CSRGraph,
    batched_random_walks,
    ensure_csr,
    freeze,
    resolve_backend,
    thaw,
)
from repro.engine import kernels
from repro.engine.dispatch import (
    degree_vector as dispatch_degree_vector,
    joint_degree_matrix as dispatch_jdm,
    network_clustering as dispatch_clustering,
)
from repro.errors import EngineError, GraphError, SamplingError
from repro.graph.generators import complete_graph, powerlaw_cluster_graph
from repro.graph.multigraph import MultiGraph
from repro.metrics import basic, clustering
from repro.sampling.csr_access import CSRGraphAccess
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


def test_batched_walks_stay_on_edges(social_graph):
    csr = freeze(social_graph)
    walks = batched_random_walks(csr, num_walks=6, length=40, rng=11)
    assert walks.shape == (6, 41)
    for row in walks:
        for a, b in zip(row[:-1], row[1:], strict=False):
            u = csr.node_list[a]
            v = csr.node_list[b]
            assert social_graph.multiplicity(u, v) > 0


def test_batched_walks_deterministic_under_seed(social_graph):
    csr = freeze(social_graph)
    a = batched_random_walks(csr, 4, 25, rng=5)
    b = batched_random_walks(csr, 4, 25, rng=5)
    assert np.array_equal(a, b)


def test_batched_walks_raises_on_stuck_walker():
    g = MultiGraph()
    g.add_node(0)
    g.add_edge(1, 2)
    with pytest.raises(GraphError):
        batched_random_walks(freeze(g), 2, 3, seeds=[0, 1], rng=1)


def test_traversed_pair_counts_matches_loop():
    degs = [2, 3, 3, 2, 5]
    counts = kernels.traversed_pair_counts(np.asarray(degs))
    ref: dict[tuple[int, int], int] = {}
    for a, b in zip(degs[:-1], degs[1:], strict=False):
        ref[(a, b)] = ref.get((a, b), 0) + 1
        ref[(b, a)] = ref.get((b, a), 0) + 1
    assert counts == ref


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def test_resolve_backend_auto_threshold():
    assert resolve_backend("auto", size=AUTO_EDGE_THRESHOLD - 1) == "python"
    assert resolve_backend("auto", size=AUTO_EDGE_THRESHOLD) == "csr"
    assert resolve_backend("auto") == "python"
    assert resolve_backend("python", size=10**9) == "python"
    assert resolve_backend("csr", size=1) == "csr"


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "csr")
    assert resolve_backend("auto", size=1) == "csr"
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert resolve_backend("auto", size=10**9) == "python"
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(EngineError):
        resolve_backend("auto", size=1)


def test_resolve_backend_rejects_unknown():
    with pytest.raises(EngineError):
        resolve_backend("gpu")


def test_resolve_backend_per_kernel_thresholds():
    from repro.engine import AUTO_KERNEL_THRESHOLDS

    for kernel, threshold in AUTO_KERNEL_THRESHOLDS.items():
        assert resolve_backend("auto", size=threshold - 1, kernel=kernel) == (
            "python"
        )
        assert resolve_backend("auto", size=threshold, kernel=kernel) == "csr"
    # unknown kernels fall back to the global default
    assert (
        resolve_backend("auto", size=AUTO_EDGE_THRESHOLD, kernel="mystery")  # reprolint: disable=REP302 fallback path under test
        == "csr"
    )


def test_rewiring_engine_backend_resolution(social_graph, monkeypatch):
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
    # an explicit backend and REPRO_BACKEND still win over the budget
    assert resolved("csr", rc=1) == "csr"
    assert resolved("python", rc=large_rc) == "python"
    monkeypatch.setenv("REPRO_BACKEND", "csr")
    assert resolved(rc=1) == "csr"
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert resolved(rc=large_rc) == "python"


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
    py = dispatch_jdm(social_graph, backend="python")
    cs = dispatch_jdm(social_graph, backend="csr")
    assert py == cs
    assert dispatch_degree_vector(social_graph, backend="csr") == basic.degree_vector(
        social_graph
    )
    assert dispatch_clustering(social_graph, backend="csr") == pytest.approx(
        clustering.network_clustering(social_graph), rel=1e-12, abs=1e-12
    )


def test_dispatch_accepts_frozen_input(social_graph):
    csr = freeze(social_graph)
    assert dispatch_jdm(csr) == basic.joint_degree_matrix(social_graph)
    # explicit python backend thaws the snapshot
    assert dispatch_jdm(csr, backend="python") == basic.joint_degree_matrix(
        social_graph
    )


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
# CSR-backed access model
# ----------------------------------------------------------------------
def test_csr_access_serves_existing_walkers(social_graph):
    access = CSRGraphAccess(social_graph)
    walk = random_walk(access, target_queried=30, rng=9)
    assert walk.length >= 30
    assert access.num_queried >= 30
    for node, nbrs in walk.neighbors.items():
        assert sorted(nbrs, key=repr) == sorted(
            social_graph.incident_edge_endpoints(node), key=repr
        )


def test_csr_access_enforces_budget(social_graph):
    access = CSRGraphAccess(social_graph, budget=5)
    with pytest.raises(SamplingError):
        random_walk(access, target_queried=50, rng=3)
    assert access.num_queried == 5


def test_csr_access_batched_walks_accounting(social_graph):
    access = CSRGraphAccess(social_graph)
    walks = access.batched_walks(num_walks=5, target_queried=60, rng=21)
    assert len(walks) == 5
    visited = set().union(*(w.distinct_nodes for w in walks))
    assert visited == access.queried_nodes
    assert access.num_queried >= 60
    # lockstep: all walkers recorded the same number of rounds
    lengths = {w.length for w in walks}
    assert len(lengths) == 1
    for w in walks:
        for node in w.nodes:
            assert social_graph.has_node(node)


def test_csr_access_batched_walks_respects_budget(social_graph):
    access = CSRGraphAccess(social_graph, budget=10)
    with pytest.raises(SamplingError):
        access.batched_walks(num_walks=4, target_queried=40, rng=2)
    assert access.num_queried == 10


def test_csr_access_batched_walks_seed_validation(triangle):
    access = CSRGraphAccess(triangle)
    with pytest.raises(SamplingError):
        access.batched_walks(2, 2, seeds=[0], rng=1)
    with pytest.raises(SamplingError):
        access.batched_walks(1, 2, seeds=["missing"], rng=1)


def test_csr_access_accepts_prefrozen(social_graph):
    csr = freeze(social_graph)
    access = CSRGraphAccess(csr)
    assert access.csr is csr
    seed = access.random_seed(7)
    assert social_graph.has_node(seed)


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


def test_auto_backend_picks_csr_for_large_graphs():
    # resolve only; building a >=20k-edge graph here would slow the suite
    g = powerlaw_cluster_graph(60, 3, 0.2, rng=1)
    assert resolve_backend("auto", size=g.num_edges) == "python"
