"""Tests for the dK substrate: checks, construction, rewiring, generators."""

from __future__ import annotations

import math

import pytest

from repro.dk.construction import build_graph_from_targets
from repro.dk.degree_vector import (
    check_degree_vector,
    degree_vector_degree_sum,
    degree_vector_total,
)
from repro.dk.dk_series import generate_0k, generate_1k, generate_25k, generate_2k
from repro.dk.joint_degree_matrix import (
    check_joint_degree_matrix,
    jdm_all_class_sums,
    jdm_class_degree_sum,
    jdm_total_edges,
    symmetrize,
)
from repro.dk.rewiring import RewiringEngine
from repro.errors import ConstructionError, ExperimentError, RealizabilityError
from repro.graph.generators import powerlaw_cluster_graph
from repro.metrics.basic import degree_vector, joint_degree_matrix
from repro.metrics.clustering import degree_dependent_clustering
from repro.metrics.distance import normalized_l1
from repro.sampling.access import GraphAccess
from repro.sampling.subgraph import build_subgraph
from repro.sampling.walkers import random_walk


class TestDegreeVectorChecks:
    def test_totals(self):
        dv = {1: 4, 3: 2}
        assert degree_vector_total(dv) == 6
        assert degree_vector_degree_sum(dv) == 10

    def test_valid_vector_passes(self):
        check_degree_vector({2: 3, 1: 2})  # sum = 8, even

    def test_odd_sum_rejected(self):
        with pytest.raises(RealizabilityError):
            check_degree_vector({3: 1})

    def test_negative_count_rejected(self):
        with pytest.raises(RealizabilityError):
            check_degree_vector({2: -1})

    def test_zero_degree_class_rejected(self):
        with pytest.raises(RealizabilityError):
            check_degree_vector({0: 2})

    def test_subgraph_census_enforced(self):
        with pytest.raises(RealizabilityError):
            check_degree_vector({2: 1}, subgraph_census={2: 2})
        check_degree_vector({2: 2}, subgraph_census={2: 2})


class TestJdmChecks:
    def test_symmetrize_fills_mirror(self):
        jdm = symmetrize({(2, 3): 4})
        assert jdm[(3, 2)] == 4

    def test_symmetrize_conflict_rejected(self):
        with pytest.raises(RealizabilityError):
            symmetrize({(2, 3): 4, (3, 2): 5})

    def test_class_sums(self):
        jdm = symmetrize({(2, 2): 1, (2, 3): 2})
        assert jdm_class_degree_sum(jdm, 2) == 4  # 2*1 + 2
        assert jdm_class_degree_sum(jdm, 3) == 2
        assert jdm_all_class_sums(jdm) == {2: 4, 3: 2}

    def test_total_edges(self):
        jdm = symmetrize({(2, 2): 1, (2, 3): 2})
        assert jdm_total_edges(jdm) == 3

    def test_check_against_dv(self):
        # 3 nodes of degree 2 in a triangle: m(2,2) = 3
        check_joint_degree_matrix({(2, 2): 3}, {2: 3})

    def test_jdm3_violation_detected(self):
        with pytest.raises(RealizabilityError):
            check_joint_degree_matrix({(2, 2): 3}, {2: 4})

    def test_asymmetry_detected(self):
        with pytest.raises(RealizabilityError):
            check_joint_degree_matrix({(2, 3): 1}, {2: 1, 3: 1})

    def test_census_enforced(self):
        with pytest.raises(RealizabilityError):
            check_joint_degree_matrix(
                {(2, 2): 3}, {2: 3}, subgraph_census={(2, 2): 4}
            )

    def test_real_graph_statistics_are_consistent(self, social_graph):
        check_joint_degree_matrix(
            joint_degree_matrix(social_graph), degree_vector(social_graph)
        )


class TestConstructionFromEmpty:
    def test_realizes_triangle_targets(self):
        g = build_graph_from_targets({2: 3}, {(2, 2): 3}, rng=0)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert all(g.degree(u) == 2 for u in g.nodes())

    def test_realizes_real_graph_targets_exactly(self, social_graph):
        dv = degree_vector(social_graph)
        jdm = joint_degree_matrix(social_graph)
        g = build_graph_from_targets(dv, jdm, rng=1)
        assert degree_vector(g) == dv
        assert joint_degree_matrix(g) == jdm

    def test_inconsistent_targets_rejected(self):
        with pytest.raises(ConstructionError):
            build_graph_from_targets({2: 3}, {(2, 2): 5}, rng=0)

    def test_star_targets(self):
        dv = {4: 1, 1: 4}
        jdm = symmetrize({(4, 1): 4})
        g = build_graph_from_targets(dv, jdm, rng=2)
        assert degree_vector(g) == dv


class TestConstructionFromSubgraph:
    @pytest.fixture
    def sampled(self, social_graph):
        walk = random_walk(GraphAccess(social_graph), 30, rng=3)
        return build_subgraph(walk)

    def test_contains_subgraph_and_realizes_targets(self, social_graph, sampled):
        # targets: the original graph's own statistics, with subgraph nodes
        # assigned their true degrees — guaranteed consistent
        dv = degree_vector(social_graph)
        jdm = joint_degree_matrix(social_graph)
        target_degrees = {u: social_graph.degree(u) for u in sampled.graph.nodes()}
        g = build_graph_from_targets(
            dv, jdm, rng=4, subgraph=sampled, target_degrees=target_degrees
        )
        assert degree_vector(g) == dv
        assert joint_degree_matrix(g) == jdm
        for u, v in sampled.graph.edges():
            assert g.has_edge(u, v)

    def test_missing_target_degrees_rejected(self, sampled):
        with pytest.raises(ConstructionError):
            build_graph_from_targets({2: 3}, {(2, 2): 3}, subgraph=sampled)

    def test_dv3_violation_rejected(self, social_graph, sampled):
        target_degrees = {u: social_graph.degree(u) for u in sampled.graph.nodes()}
        with pytest.raises(ConstructionError):
            build_graph_from_targets(
                {1: 2}, {(1, 1): 1}, rng=0,
                subgraph=sampled, target_degrees=target_degrees,
            )


class TestRewiring:
    def _engine(self, graph, target, protected=None, rng=0):
        return RewiringEngine(graph, target, protected_edges=protected, rng=rng)

    def test_preserves_degrees_and_jdm(self, social_graph):
        g = generate_2k(social_graph, rng=5)
        dv_before = degree_vector(g)
        jdm_before = joint_degree_matrix(g)
        target = degree_dependent_clustering(social_graph)
        engine = self._engine(g, target, rng=6)
        engine.run(rc=20)
        assert degree_vector(g) == dv_before
        assert joint_degree_matrix(g) == jdm_before

    def test_distance_never_increases(self, social_graph):
        g = generate_2k(social_graph, rng=7)
        target = degree_dependent_clustering(social_graph)
        engine = self._engine(g, target, rng=8)
        initial = engine.distance
        report = engine.run(rc=20)
        assert report.final_distance <= initial + 1e-12
        assert report.final_distance == pytest.approx(engine.distance)

    def test_distance_tracks_true_clustering(self, social_graph):
        g = generate_2k(social_graph, rng=9)
        target = degree_dependent_clustering(social_graph)
        engine = self._engine(g, target, rng=10)
        engine.run(rc=10)
        # the incrementally-maintained clustering equals a fresh recount
        fresh = degree_dependent_clustering(g)
        incremental = engine.clustering_by_degree()
        for k, v in fresh.items():
            assert incremental[k] == pytest.approx(v, abs=1e-9)

    def test_protected_edges_survive(self, social_graph):
        walk = random_walk(GraphAccess(social_graph), 40, rng=11)
        sampled = build_subgraph(walk)
        dv = degree_vector(social_graph)
        jdm = joint_degree_matrix(social_graph)
        target_degrees = {u: social_graph.degree(u) for u in sampled.graph.nodes()}
        g = build_graph_from_targets(
            dv, jdm, rng=12, subgraph=sampled, target_degrees=target_degrees
        )
        protected = sampled.edge_set()
        engine = self._engine(
            g, degree_dependent_clustering(social_graph), protected=protected, rng=13
        )
        engine.run(rc=30)
        for u, v in protected:
            assert g.has_edge(u, v)

    def test_candidate_count_excludes_protected(self, social_graph):
        g = social_graph.copy()
        all_edges = {(min(u, v), max(u, v)) for u, v in g.edges()}
        some = set(list(all_edges)[:50])
        engine = self._engine(g, {4: 0.5}, protected=some, rng=14)
        assert engine.num_candidates == g.num_edges - 50

    def test_protected_pair_in_either_spelling(self):
        g = powerlaw_cluster_graph(60, 3, 0.3, rng=1)
        u, v = next(iter(g.edges()))
        lo, hi = min(u, v), max(u, v)
        for pair in ((lo, hi), (hi, lo)):
            engine = self._engine(g.copy(), {3: 0.5}, protected={pair}, rng=14)
            assert engine.num_candidates == g.num_edges - 1, pair

    def test_zero_target_short_circuits(self, social_graph):
        g = social_graph.copy()
        engine = self._engine(g, {}, rng=15)
        report = engine.run(rc=100)
        assert report.accepted == 0

    def test_rewiring_improves_clustering_match(self, social_graph):
        g = generate_2k(social_graph, rng=16)
        target = degree_dependent_clustering(social_graph)
        engine = self._engine(g, target, rng=17)
        report = engine.run(rc=60)
        assert report.final_distance < report.initial_distance

    @pytest.mark.parametrize("rc", [math.nan, math.inf, -1])
    def test_bad_rewiring_coefficient_rejected(self, rc):
        g = powerlaw_cluster_graph(60, 3, 0.3, rng=1)
        engine = self._engine(g, {3: 0.5}, rng=18)
        with pytest.raises(ExperimentError, match="rc must be"):
            engine.run(rc=rc)

    def test_zero_rewiring_coefficient_is_a_climb_of_no_attempts(self):
        g = powerlaw_cluster_graph(60, 3, 0.3, rng=1)
        engine = self._engine(g, {3: 0.5}, rng=18)
        report = engine.run(rc=0)
        assert (report.attempts, report.accepted) == (0, 0)


class TestDkSeries:
    def test_0k_preserves_n_and_m(self, social_graph):
        g = generate_0k(social_graph, rng=18)
        assert g.num_nodes == social_graph.num_nodes
        assert g.num_edges == social_graph.num_edges

    def test_1k_preserves_degree_vector(self, social_graph):
        g = generate_1k(social_graph, rng=19)
        assert sorted(g.degrees().values()) == sorted(social_graph.degrees().values())

    def test_2k_preserves_jdm(self, social_graph):
        g = generate_2k(social_graph, rng=20)
        assert joint_degree_matrix(g) == joint_degree_matrix(social_graph)

    def test_25k_preserves_jdm_and_improves_clustering(self, social_graph):
        g2 = generate_2k(social_graph, rng=21)
        g25 = generate_25k(social_graph, rc=40, rng=21)
        assert joint_degree_matrix(g25) == joint_degree_matrix(social_graph)
        target = degree_dependent_clustering(social_graph)
        d2 = normalized_l1(target, degree_dependent_clustering(g2))
        d25 = normalized_l1(target, degree_dependent_clustering(g25))
        assert d25 <= d2
