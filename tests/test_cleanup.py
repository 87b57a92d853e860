"""Tests for the JDM-preserving simplification pass."""

from __future__ import annotations

from repro.dk.cleanup import CleanupReport, count_defects, simplify_preserving_jdm
from repro.dk.dk_series import generate_2k
from repro.graph.generators import configuration_model, powerlaw_degree_sequence
from repro.graph.multigraph import MultiGraph
from repro.metrics.basic import degree_vector, joint_degree_matrix


class TestCountDefects:
    def test_simple_graph_zero(self, cycle6):
        assert count_defects(cycle6) == 0

    def test_mixed(self, multigraph_with_parallels):
        # one extra parallel copy + one loop
        assert count_defects(multigraph_with_parallels) == 2

    def test_triple_edge(self):
        g = MultiGraph.from_edges([(0, 1), (0, 1), (0, 1)])
        assert count_defects(g) == 2


class TestSimplify:
    def test_already_simple_noop(self, cycle6):
        report = simplify_preserving_jdm(cycle6, rng=1)
        assert report == CleanupReport(0, 0, 0, 0)
        assert report.is_simple

    def test_removes_configuration_model_defects(self):
        degrees = powerlaw_degree_sequence(150, 2.3, 2, 25, rng=2)
        g = configuration_model(degrees, rng=2)
        before_dv = degree_vector(g)
        before_jdm = joint_degree_matrix(g)
        report = simplify_preserving_jdm(g, rng=3)
        assert count_defects(g) == report.remaining_defects
        assert report.remaining_defects <= report.initial_defects
        # the equal-degree swap preserves both the degree vector and JDM
        assert degree_vector(g) == before_dv
        assert joint_degree_matrix(g) == before_jdm

    def test_strict_mode_reduces_defects(self):
        reduced = 0
        for seed in range(5):
            degrees = powerlaw_degree_sequence(120, 2.5, 2, 20, rng=seed)
            g = configuration_model(degrees, rng=seed)
            report = simplify_preserving_jdm(g, rng=seed + 100)
            if report.remaining_defects < report.initial_defects:
                reduced += 1
        # hub-hub parallels have rare degrees and can resist the strict
        # (equal-degree) move, but most graphs still shed some defects
        assert reduced >= 3

    def test_relaxed_mode_fully_simplifies(self):
        for seed in range(5):
            degrees = powerlaw_degree_sequence(120, 2.5, 2, 20, rng=seed)
            g = configuration_model(degrees, rng=seed)
            dv = degree_vector(g)
            report = simplify_preserving_jdm(g, rng=seed + 200, strict_jdm=False)
            assert report.is_simple, seed
            assert g.is_simple()
            assert degree_vector(g) == dv  # degrees survive in relaxed mode

    def test_preserves_edge_count(self):
        degrees = [4] * 10 + [2] * 20
        g = configuration_model(degrees, rng=4)
        m_before = g.num_edges
        simplify_preserving_jdm(g, rng=5)
        assert g.num_edges == m_before

    def test_protected_pairs_survive_in_either_spelling(self):
        source = configuration_model([4] * 10 + [2] * 20, rng=4)
        single = sorted(
            (min(u, v), max(u, v))
            for u, v in source.edges()
            if u != v and source.multiplicity(u, v) == 1
        )
        outcomes = []
        for protected in (set(single), {(v, u) for u, v in single}):
            g = source.copy()
            report = simplify_preserving_jdm(
                g, rng=5, strict_jdm=False, protected_edges=protected
            )
            assert all(g.has_edge(u, v) for u, v in single)
            outcomes.append((report, sorted(g.edges())))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].swaps > 0

    def test_on_2k_generated_graph(self, social_graph):
        g = generate_2k(social_graph, rng=6)
        jdm = joint_degree_matrix(g)
        report = simplify_preserving_jdm(g, rng=7)
        assert joint_degree_matrix(g) == jdm
        assert report.remaining_defects <= report.initial_defects
