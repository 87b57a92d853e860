"""Tests for the 12 structural properties, cross-checked against networkx."""

from __future__ import annotations

import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.convert import to_networkx_simple
from repro.graph.multigraph import MultiGraph
from repro.metrics.basic import (
    degree_distribution,
    degree_vector,
    joint_degree_distribution,
    joint_degree_matrix,
    neighbor_connectivity,
)
from repro.metrics.betweenness import (
    betweenness_centrality,
    degree_dependent_betweenness,
)
from repro.metrics.clustering import (
    degree_dependent_clustering,
    network_clustering,
    shared_partner_distribution,
    triangles_per_node,
)
from repro.metrics.distance import normalized_l1, relative_error
from repro.metrics.matrix import to_csr
from repro.metrics.paths import shortest_path_stats
from repro.metrics.spectral import largest_eigenvalue
from repro.metrics.suite import (
    PROPERTY_NAMES,
    EvaluationConfig,
    average_l1,
    compute_properties,
    l1_distances,
)


class TestBasicProperties:
    def test_degree_vector(self, star5):
        assert degree_vector(star5) == {5: 1, 1: 5}

    def test_degree_vector_skips_isolated(self):
        g = MultiGraph.from_edges([(0, 1)], nodes=[9])
        assert degree_vector(g) == {1: 2}

    def test_degree_distribution_sums_to_one(self, social_graph):
        assert sum(degree_distribution(social_graph).values()) == pytest.approx(1.0)

    def test_joint_degree_matrix_symmetric_and_counts_edges(self, social_graph):
        jdm = joint_degree_matrix(social_graph)
        total = sum(v for (k, kp), v in jdm.items() if k < kp)
        total += sum(v for (k, kp), v in jdm.items() if k == kp)
        assert total == social_graph.num_edges
        for (k, kp), v in jdm.items():
            assert jdm[(kp, k)] == v

    def test_joint_degree_matrix_triangle(self, triangle):
        assert joint_degree_matrix(triangle) == {(2, 2): 3}

    def test_joint_degree_distribution_normalized(self, social_graph):
        assert sum(joint_degree_distribution(social_graph).values()) == pytest.approx(1.0)

    def test_neighbor_connectivity_star(self, star5):
        knn = neighbor_connectivity(star5)
        assert knn[1] == pytest.approx(5.0)  # leaves see the hub
        assert knn[5] == pytest.approx(1.0)  # hub sees leaves

    def test_neighbor_connectivity_matches_networkx(self, social_graph):
        ours = neighbor_connectivity(social_graph)
        theirs = nx.average_degree_connectivity(to_networkx_simple(social_graph))
        for k, v in ours.items():
            assert v == pytest.approx(theirs[k], rel=1e-9)


class TestClusteringProperties:
    def test_triangles_triangle(self, triangle):
        assert triangles_per_node(triangle) == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_triangles_match_networkx(self, social_graph):
        ours = triangles_per_node(social_graph)
        theirs = nx.triangles(to_networkx_simple(social_graph))
        for u, t in ours.items():
            assert t == pytest.approx(theirs[u])

    def test_triangles_ignore_loops(self):
        g = MultiGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 0)])
        assert triangles_per_node(g)[0] == pytest.approx(1.0)

    def test_triangles_count_multiplicity(self):
        g = MultiGraph.from_edges([(0, 1), (0, 1), (1, 2), (2, 0)])
        # t_0 = sum_{j<l} A_0j A_0l A_jl = 2*1*1 = 2
        assert triangles_per_node(g)[0] == pytest.approx(2.0)

    def test_network_clustering_matches_networkx(self, social_graph):
        ours = network_clustering(social_graph)
        theirs = nx.average_clustering(to_networkx_simple(social_graph))
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_degree_dependent_clustering_values(self, social_graph):
        ck = degree_dependent_clustering(social_graph)
        nxc = nx.clustering(to_networkx_simple(social_graph))
        by_k: dict[int, list[float]] = {}
        for u, c in nxc.items():
            by_k.setdefault(social_graph.degree(u), []).append(c)
        for k, cs in by_k.items():
            assert ck[k] == pytest.approx(sum(cs) / len(cs), rel=1e-9)

    def test_shared_partner_distribution_triangle(self, triangle):
        assert shared_partner_distribution(triangle) == {1: 1.0}

    def test_shared_partner_distribution_star(self, star5):
        assert shared_partner_distribution(star5) == {0: 1.0}

    def test_shared_partner_sums_to_one(self, social_graph):
        assert sum(shared_partner_distribution(social_graph).values()) == pytest.approx(1.0)

    def test_empty_graph_clustering(self):
        assert network_clustering(MultiGraph()) == 0.0
        assert degree_dependent_clustering(MultiGraph()) == {}
        assert shared_partner_distribution(MultiGraph()) == {}


class TestPathProperties:
    def test_cycle_exact(self, cycle6):
        stats = shortest_path_stats(cycle6)
        assert stats.exact
        assert stats.diameter == 3
        # C6 distances from any node: 1,1,2,2,3
        assert stats.average_length == pytest.approx((1 + 1 + 2 + 2 + 3) / 5)
        assert stats.length_distribution[3] == pytest.approx(1 / 5)

    def test_matches_networkx(self, social_graph):
        stats = shortest_path_stats(social_graph)
        g = to_networkx_simple(social_graph)
        assert stats.average_length == pytest.approx(
            nx.average_shortest_path_length(g), rel=1e-9
        )
        assert stats.diameter == nx.diameter(g)

    def test_sampled_mode_close_to_exact(self, social_graph):
        exact = shortest_path_stats(social_graph)
        sampled = shortest_path_stats(social_graph, num_sources=60, rng=3)
        assert not sampled.exact
        assert sampled.average_length == pytest.approx(exact.average_length, rel=0.1)
        assert sampled.diameter <= exact.diameter
        assert sampled.diameter >= exact.diameter - 1

    def test_uses_largest_component(self):
        g = MultiGraph.from_edges([(0, 1), (1, 2), (9, 10)])
        stats = shortest_path_stats(g)
        assert stats.diameter == 2

    def test_trivial_graphs(self):
        g = MultiGraph()
        g.add_node(0)
        stats = shortest_path_stats(g)
        assert stats.average_length == 0.0
        assert stats.diameter == 0

    def test_distribution_sums_to_one(self, social_graph):
        stats = shortest_path_stats(social_graph)
        assert sum(stats.length_distribution.values()) == pytest.approx(1.0)


class TestBetweenness:
    def test_matches_networkx_ordered_pairs(self, social_graph):
        ours = betweenness_centrality(social_graph)
        theirs = nx.betweenness_centrality(
            to_networkx_simple(social_graph), normalized=False
        )
        # networkx halves undirected scores; the paper counts ordered pairs
        for u, b in ours.items():
            assert b == pytest.approx(2.0 * theirs[u], rel=1e-9, abs=1e-9)

    def test_star_hub(self, star5):
        b = betweenness_centrality(star5)
        # hub lies on all 5*4 ordered leaf pairs
        assert b[0] == pytest.approx(20.0)
        assert b[1] == pytest.approx(0.0)

    def test_degree_dependent_aggregation(self, star5):
        bk = degree_dependent_betweenness(star5)
        assert bk[5] == pytest.approx(20.0)
        assert bk[1] == pytest.approx(0.0)

    def test_pivot_estimate_unbiased_scale(self, social_graph):
        exact = betweenness_centrality(social_graph)
        approx = betweenness_centrality(social_graph, num_pivots=60, rng=5)
        total_exact = sum(exact.values())
        total_approx = sum(approx.values())
        assert total_approx == pytest.approx(total_exact, rel=0.25)

    def test_tiny_graph(self, path3):
        b = betweenness_centrality(path3)
        assert b[1] == pytest.approx(2.0)


class TestSpectral:
    def test_complete_graph(self, k4):
        assert largest_eigenvalue(k4) == pytest.approx(3.0, abs=1e-6)

    def test_star(self, star5):
        assert largest_eigenvalue(star5) == pytest.approx(math.sqrt(5), abs=1e-6)

    def test_matches_dense_eig(self, social_graph):
        a = to_csr(social_graph).toarray()
        dense = float(np.max(np.linalg.eigvalsh(a)))
        assert largest_eigenvalue(social_graph) == pytest.approx(dense, abs=1e-5)

    def test_empty_graph(self):
        assert largest_eigenvalue(MultiGraph()) == 0.0

    def test_loop_convention(self):
        g = MultiGraph()
        g.add_edge(0, 0)
        assert largest_eigenvalue(g) == pytest.approx(2.0, abs=1e-6)


class TestDistance:
    def test_relative_error(self):
        assert relative_error(10, 12) == pytest.approx(0.2)
        assert relative_error(10, 10) == 0.0
        assert relative_error(0, 0) == 0.0
        assert relative_error(0, 1) == math.inf

    def test_normalized_l1_scalars(self):
        assert normalized_l1(4.0, 5.0) == pytest.approx(0.25)

    def test_normalized_l1_mappings(self):
        a = {1: 0.5, 2: 0.5}
        b = {1: 0.25, 3: 0.25}
        # |0.25-0.5| + |0-0.5| + |0.25-0| = 1.0; norm = 1.0
        assert normalized_l1(a, b) == pytest.approx(1.0)

    def test_identity_is_zero(self, social_graph):
        d = degree_distribution(social_graph)
        assert normalized_l1(d, d) == 0.0

    def test_mixed_types_raise(self):
        with pytest.raises(TypeError):
            normalized_l1(1.0, {1: 1.0})

    def test_empty_against_empty(self):
        assert normalized_l1({}, {}) == 0.0

    def test_empty_original_nonempty_generated(self):
        assert normalized_l1({}, {1: 0.5}) == math.inf


class TestSuite:
    def test_all_twelve_properties(self, social_graph):
        props = compute_properties(social_graph)
        for name in PROPERTY_NAMES:
            assert props.value(name) is not None

    def test_self_distance_zero(self, social_graph):
        props = compute_properties(social_graph)
        d = l1_distances(props, props)
        assert all(v == 0.0 for v in d.values())
        assert average_l1(d) == 0.0

    def test_evaluation_config_thresholds(self, social_graph):
        cfg = EvaluationConfig(exact_threshold=10, path_sources=20, betweenness_pivots=10)
        assert cfg.sources_for(social_graph) == 20
        assert cfg.pivots_for(social_graph) == 10
        cfg_big = EvaluationConfig(exact_threshold=10_000)
        assert cfg_big.sources_for(social_graph) is None

    def test_sampled_evaluation_close_to_exact(self, social_graph):
        exact = compute_properties(social_graph, EvaluationConfig(exact_threshold=10**9))
        sampled = compute_properties(
            social_graph,
            EvaluationConfig(exact_threshold=1, path_sources=80, betweenness_pivots=60),
        )
        assert sampled.average_path_length == pytest.approx(
            exact.average_path_length, rel=0.1
        )

    def test_sampled_properties_pinned_for_fixed_seed(self, social_graph):
        """Regression pin for the integer-spawned child seeds.

        The sampled path/betweenness child RNGs are seeded with
        ``rng.getrandbits(64)`` (full-width integer spawn) rather than a
        float draw; these exact values document the resulting stream so
        any accidental change to the seed derivation shows up as a diff,
        not a silent reshuffle.
        """
        cfg = EvaluationConfig(
            exact_threshold=50, path_sources=16, betweenness_pivots=8, seed=7
        )
        props = compute_properties(social_graph, cfg)
        assert props.average_path_length == pytest.approx(
            2.8009453781512605, abs=0, rel=0
        )
        assert props.diameter == 5.0
        head = sorted(props.degree_betweenness.items())[:3]
        assert head == [
            (3, pytest.approx(14.565420272841612, abs=0, rel=0)),
            (4, pytest.approx(66.88755636287149, abs=0, rel=0)),
            (5, pytest.approx(110.54505971969208, abs=0, rel=0)),
        ]
        # Bit-identical on repeat: the whole run is a function of the seed.
        again = compute_properties(social_graph, cfg)
        assert again.average_path_length == props.average_path_length
        assert again.path_length_distribution == props.path_length_distribution
        assert again.degree_betweenness == props.degree_betweenness

    def test_distances_cover_property_names(self, social_graph, cycle6):
        d = l1_distances(compute_properties(social_graph), compute_properties(cycle6))
        assert set(d) == set(PROPERTY_NAMES)


# ----------------------------------------------------------------------
# independent oracle: all 12 properties against networkx
# ----------------------------------------------------------------------
# Simple graphs over a small id space, connected or not: a few isolated
# nodes ride along, and the edges may split into several components.
simple_graphs = st.builds(
    lambda edges, isolated: MultiGraph.from_edges(edges, nodes=isolated),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=30,
        unique_by=lambda e: (min(e), max(e)),
    ),
    st.lists(st.integers(12, 15), max_size=3),
)


def _by_degree(graph: nx.Graph, values: dict) -> dict[int, float]:
    """Mean of a per-node value per degree class ``k >= 1``."""
    groups: dict[int, list[float]] = {}
    for u, k in graph.degree():
        if k >= 1:
            groups.setdefault(k, []).append(values[u])
    return {k: sum(v) / len(v) for k, v in groups.items()}


def _networkx_properties(g: nx.Graph) -> dict[str, object]:
    """The 12 properties (plus P(k,k')) computed by networkx and numpy.

    Conventions the oracle follows, as the paper's evaluation does:
    degree-indexed properties skip degree 0 (networkx reports a 0 entry
    for it in ``average_degree_connectivity``); the path triple and the
    betweenness run on the largest component, the first found in node
    order when two tie (nodes outside it have betweenness 0); and
    betweenness counts ordered pairs, twice networkx's unnormalized
    undirected score.
    """
    n, m = g.number_of_nodes(), g.number_of_edges()
    hist = nx.degree_histogram(g)
    degree = dict(g.degree())
    jdm: Counter = Counter()
    for u, v in g.edges():
        jdm[(degree[u], degree[v])] += 1
        if degree[u] != degree[v]:
            jdm[(degree[v], degree[u])] += 1
    shared = Counter(len(set(g[u]) & set(g[v])) for u, v in g.edges())
    lcc = g.subgraph(max(nx.connected_components(g), key=len))
    lengths = Counter(
        d
        for _, row in nx.all_pairs_shortest_path_length(lcc)
        for d in row.values()
        if d > 0
    )
    pairs = sum(lengths.values())
    score = dict.fromkeys(g, 0.0)
    for u, b in nx.betweenness_centrality(lcc, normalized=False).items():
        score[u] = 2.0 * b
    return {
        "num_nodes": float(n),
        "average_degree": 2.0 * m / n,
        "degree_distribution": {k: c / n for k, c in enumerate(hist) if k >= 1 and c},
        "joint_degree_distribution": {
            (k, kp): (2 if k == kp else 1) * c / (2.0 * m) for (k, kp), c in jdm.items()
        },
        "neighbor_connectivity": {
            k: v for k, v in nx.average_degree_connectivity(g).items() if k >= 1
        },
        "clustering": nx.average_clustering(g),
        "degree_clustering": _by_degree(g, nx.clustering(g)),
        "shared_partners": {s: c / m for s, c in shared.items()},
        "average_path_length": (
            sum(d * c for d, c in lengths.items()) / pairs if pairs else 0.0
        ),
        "path_length_distribution": {d: c / pairs for d, c in lengths.items()},
        "diameter": float(max(lengths, default=0)),
        "degree_betweenness": _by_degree(g, score),
        "largest_eigenvalue": float(np.linalg.eigvalsh(nx.to_numpy_array(g))[-1]),
    }


def _assert_close(ours, theirs, rel: float) -> None:
    if isinstance(theirs, dict):
        assert set(ours) == set(theirs)
        for key, value in theirs.items():
            assert math.isclose(ours[key], value, rel_tol=rel, abs_tol=rel), key
    else:
        assert math.isclose(ours, theirs, rel_tol=rel, abs_tol=rel)


@pytest.mark.parametrize("backend", ["python", "csr"])
@settings(max_examples=60, deadline=None)
@given(graph=simple_graphs)
def test_all_properties_match_networkx(backend, graph):
    """Every property of an exact-mode evaluation equals what networkx
    computes independently, on both backends.  Everything but λ1 agrees to
    float round-off; λ1 agrees to the eigensolver's tolerance (1e-8)."""
    config = EvaluationConfig(exact_threshold=10**6, exact_paths=True, backend=backend)
    ours = compute_properties(graph, config)
    theirs = _networkx_properties(to_networkx_simple(graph))
    for name in PROPERTY_NAMES:
        rel = 1e-8 if name == "largest_eigenvalue" else 1e-12
        _assert_close(ours.value(name), theirs[name], rel)
    _assert_close(
        joint_degree_distribution(graph, backend=backend),
        theirs["joint_degree_distribution"],
        1e-12,
    )
