"""End-to-end tests of the restoration pipeline and the Gjoka baseline."""

from __future__ import annotations

import pytest

from repro.dk.joint_degree_matrix import check_joint_degree_matrix
from repro.errors import ExperimentError
from repro.graph.datasets import load_dataset
from repro.metrics.basic import degree_vector, joint_degree_matrix
from repro.metrics.suite import (
    EvaluationConfig,
    average_l1,
    compute_properties,
    l1_distances,
)
from repro.restore.gjoka import gjoka_generate
from repro.restore.restorer import restore_dataset, restore_from_walk, restore_graph
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import random_walk


@pytest.fixture(scope="module")
def hidden_graph():
    return load_dataset("anybeat", scale=0.5)


@pytest.fixture(scope="module")
def walk(hidden_graph):
    return random_walk(GraphAccess(hidden_graph), hidden_graph.num_nodes // 8, rng=31)


@pytest.fixture(scope="module")
def result(walk):
    return restore_from_walk(walk, rc=15, rng=31)


class TestProposedPipeline:
    def test_contains_every_subgraph_edge(self, result):
        for u, v in result.subgraph.graph.edges():
            assert result.graph.has_edge(u, v)

    def test_contains_every_subgraph_node(self, result):
        for u in result.subgraph.graph.nodes():
            assert result.graph.has_node(u)

    def test_realizes_target_degree_vector_exactly(self, result):
        assert degree_vector(result.graph) == {
            k: c for k, c in result.degree_targets.counts.items() if c > 0
        }

    def test_realizes_target_jdm_exactly(self, result):
        assert joint_degree_matrix(result.graph) == result.jdm_targets

    def test_targets_mutually_consistent(self, result):
        check_joint_degree_matrix(result.jdm_targets, result.degree_targets.counts)

    def test_queried_nodes_have_true_degree(self, result, hidden_graph):
        for u in result.subgraph.queried:
            assert result.graph.degree(u) == hidden_graph.degree(u)

    def test_stopwatch_covers_phases(self, result):
        splits = result.stopwatch.splits()
        for phase in (
            "subgraph",
            "estimation",
            "degree_vector",
            "joint_degree_matrix",
            "construction",
            "rewiring",
        ):
            assert phase in splits
        assert result.total_seconds >= result.rewiring_seconds

    def test_rewiring_report_present(self, result):
        assert result.rewiring is not None
        assert result.rewiring.final_distance <= result.rewiring.initial_distance

    def test_restore_graph_runs_walk_itself(self, hidden_graph):
        access = GraphAccess(hidden_graph)
        res = restore_graph(access, hidden_graph.num_nodes // 10, rc=5, rng=32)
        assert access.num_queried == hidden_graph.num_nodes // 10
        assert res.graph.num_nodes > 0

    def test_deterministic_given_seed(self, walk):
        a = restore_from_walk(walk, rc=5, rng=77)
        b = restore_from_walk(walk, rc=5, rng=77)
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_size_estimates_in_ballpark(self, result, hidden_graph):
        assert result.graph.num_nodes == pytest.approx(hidden_graph.num_nodes, rel=0.5)
        assert result.graph.num_edges == pytest.approx(hidden_graph.num_edges, rel=0.6)

    def test_unprotected_variant_runs(self, walk):
        res = restore_from_walk(walk, rc=5, rng=33, protect_subgraph_edges=False)
        # without protection the candidate pool is the full edge set
        assert res.rewiring.num_candidates == res.graph.num_edges

    def test_max_rewiring_attempts_cap(self, walk):
        res = restore_from_walk(walk, rc=1000, rng=34, max_rewiring_attempts=100)
        assert res.rewiring.attempts == 100

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5])
    def test_restore_dataset_rejects_out_of_range_fraction(self, fraction):
        # the crawl budget is the one rule every crawl shares: it refuses
        # the fraction before a 3-node crawl restores the whole graph
        small = load_dataset("anybeat", scale=0.2)
        with pytest.raises(ExperimentError, match="fraction"):
            restore_dataset(small, fraction, rc=1.0, seed=1)


class TestGjokaBaseline:
    @pytest.fixture(scope="class")
    def gjoka_result(self, walk):
        return gjoka_generate(walk, rc=15, rng=31)

    def test_targets_consistent(self, gjoka_result):
        check_joint_degree_matrix(
            gjoka_result.jdm_targets, gjoka_result.degree_targets.counts
        )

    def test_realizes_targets(self, gjoka_result):
        assert degree_vector(gjoka_result.graph) == {
            k: c for k, c in gjoka_result.degree_targets.counts.items() if c > 0
        }
        assert joint_degree_matrix(gjoka_result.graph) == gjoka_result.jdm_targets

    def test_no_subgraph_assignments(self, gjoka_result):
        assert gjoka_result.degree_targets.target_degrees == {}

    def test_does_not_embed_subgraph(self, gjoka_result):
        # gjoka builds from an empty graph with fresh ids: structure of the
        # sample is not embedded (some subgraph edge should be missing)
        sub_edges = list(gjoka_result.subgraph.graph.edges())
        missing = sum(
            1 for u, v in sub_edges if not gjoka_result.graph.has_edge(u, v)
        )
        assert missing > 0


@pytest.mark.parametrize("generate", [restore_from_walk, gjoka_generate])
def test_auto_rewiring_on_csr_matches_python(walk, generate, monkeypatch):
    # rc 15 gives 53k (proposed) and 76k (gjoka) attempts, which auto sends
    # to the csr core although the graphs have ~5k edges.  Its core is
    # built inside run(), drawing its stream seed from the shared rng at
    # that point; the restoration must still equal the python core's.
    import repro.dk.rewiring as rewiring

    resolve = rewiring.resolve_backend
    chosen = []

    def spy(*args, **kwargs):
        chosen.append(resolve(*args, **kwargs))
        return chosen[-1]

    monkeypatch.setattr(rewiring, "resolve_backend", spy)
    auto = generate(walk, rc=15, rng=31)
    python = generate(walk, rc=15, rng=31, backend="python")
    assert chosen == ["csr", "python"]
    assert auto.rewiring == python.rewiring
    assert list(auto.graph.nodes()) == list(python.graph.nodes())
    for u in python.graph.nodes():
        assert list(auto.graph.neighbor_multiplicities(u).items()) == list(
            python.graph.neighbor_multiplicities(u).items()
        )


class TestAccuracyOrdering:
    """The paper's headline claim at bench scale: proposed <= gjoka on
    average L1, and both beat raw subgraph sampling."""

    def test_proposed_beats_gjoka_and_subgraph(self, hidden_graph, walk):
        cfg = EvaluationConfig()
        truth = compute_properties(hidden_graph, cfg)
        proposed = restore_from_walk(walk, rc=15, rng=35)
        gjoka = gjoka_generate(walk, rc=15, rng=35)
        from repro.sampling.subgraph import build_subgraph

        sub = build_subgraph(walk)

        avg_proposed = average_l1(
            l1_distances(truth, compute_properties(proposed.graph, cfg))
        )
        avg_gjoka = average_l1(
            l1_distances(truth, compute_properties(gjoka.graph, cfg))
        )
        avg_sub = average_l1(l1_distances(truth, compute_properties(sub.graph, cfg)))
        # single-run bench-scale check: allow a modest margin on gjoka
        assert avg_proposed < avg_sub
        assert avg_proposed < avg_gjoka * 1.15
