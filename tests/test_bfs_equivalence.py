"""Python ↔ CSR equivalence for the frontier BFS kernels and the new
full-coverage property backends.

The engine's bar for the global properties is *bit-identical* results on
fixed seeds: the shortest-path statistics are integer-derived, and the
frontier Brandes kernel reproduces the reference's float accumulation
order exactly (see :mod:`repro.engine.bfs_kernels`).  The one documented
exception is λ1: both backends hand the *byte-identical* sparse matrix to
the same eigensolver, yet the eigenvalue agrees only to solver tolerance,
not to the last bit -- even between two calls on one matrix.

Hypothesis drives random multigraphs — loops, parallels, isolated nodes
and multiple components included; the ``slow`` tier repeats the checks on
a graph two orders of magnitude larger, where the batched kernels take
their multi-block code paths.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import bfs_kernels
from repro.engine.csr import freeze
from repro.graph.components import largest_connected_component
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.multigraph import MultiGraph
from repro.graph.simplify import simplified
from repro.metrics.basic import neighbor_connectivity
from repro.metrics.betweenness import betweenness_centrality
from repro.metrics.clustering import shared_partner_distribution
from repro.metrics.matrix import to_csr
from repro.metrics.paths import eccentricity_lower_bound, shortest_path_stats
from repro.metrics.spectral import largest_eigenvalue
from repro.metrics.suite import PROPERTY_NAMES, EvaluationConfig, compute_properties

# random multigraphs over a small id space: loops, parallels, several
# components and isolated nodes all likely
edge_lists = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=1, max_size=70
)
isolated = st.lists(st.integers(0, 19), min_size=0, max_size=4)


def build(edges, extra_nodes=()) -> MultiGraph:
    return MultiGraph.from_edges(edges, nodes=extra_nodes)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_bits_equal(py: dict, cs: dict) -> None:
    """Same keys, same float values to the last bit."""
    assert set(py) == set(cs)
    for k in py:
        assert bits(py[k]) == bits(cs[k]), (k, py[k], cs[k])


# ----------------------------------------------------------------------
# simplify + largest-component prologue
# ----------------------------------------------------------------------
@given(edge_lists, isolated)
def test_simplified_lcc_snapshot_matches_reference(edges, extra_nodes):
    g = build(edges, extra_nodes)
    reference = largest_connected_component(simplified(g))
    snap = bfs_kernels.simplified_lcc_snapshot(freeze(g))
    assert list(snap.node_list) == list(reference.nodes())
    ref_csr = freeze(reference)
    # identical arrays, not just an isomorphic structure: the Brandes
    # kernel's float accumulation order rides on the slot order
    assert np.array_equal(snap.indptr, ref_csr.indptr)
    assert np.array_equal(snap.indices, ref_csr.indices)
    assert snap.num_edges == ref_csr.num_edges


def test_simplified_lcc_snapshot_tied_components_keep_first():
    # two 3-cliques tie on size; the reference's stable sort keeps the one
    # discovered first in node insertion order
    g = MultiGraph.from_edges(
        [(10, 11), (11, 12), (12, 10), (0, 1), (1, 2), (2, 0)]
    )
    snap = bfs_kernels.simplified_lcc_snapshot(freeze(g))
    assert list(snap.node_list) == [10, 11, 12]


# ----------------------------------------------------------------------
# shortest-path statistics
# ----------------------------------------------------------------------
@given(edge_lists, isolated)
def test_shortest_path_stats_exact_equivalence(edges, extra_nodes):
    g = build(edges, extra_nodes)
    py = shortest_path_stats(g, backend="python")
    cs = shortest_path_stats(g, backend="csr")
    assert py == cs
    assert bits(py.average_length) == bits(cs.average_length)
    assert_bits_equal(py.length_distribution, cs.length_distribution)


@given(edge_lists, st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_shortest_path_stats_sampled_equivalence(edges, seed):
    g = build(edges)
    py = shortest_path_stats(g, num_sources=3, rng=seed, backend="python")
    cs = shortest_path_stats(g, num_sources=3, rng=seed, backend="csr")
    assert py == cs


@given(edge_lists, st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_eccentricity_lower_bound_equivalence(edges, seed):
    g = build(edges)
    assert eccentricity_lower_bound(g, rng=seed, backend="python") == (
        eccentricity_lower_bound(g, rng=seed, backend="csr")
    )


# ----------------------------------------------------------------------
# betweenness
# ----------------------------------------------------------------------
@given(edge_lists, isolated)
def test_betweenness_exact_bitwise(edges, extra_nodes):
    g = build(edges, extra_nodes)
    py = betweenness_centrality(g, backend="python")
    cs = betweenness_centrality(g, backend="csr")
    assert list(py) == list(cs)  # same node iteration order, too
    assert_bits_equal(py, cs)


@given(edge_lists, st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_betweenness_pivots_bitwise(edges, seed):
    g = build(edges)
    py = betweenness_centrality(g, num_pivots=4, rng=seed, backend="python")
    cs = betweenness_centrality(g, num_pivots=4, rng=seed, backend="csr")
    assert_bits_equal(py, cs)


@given(edge_lists)
@settings(max_examples=40)
def test_brandes_scores_batch_size_invariant(edges):
    # the kernel's accumulation order must not depend on how sources are
    # blocked (single-source fast path included)
    g = largest_connected_component(simplified(build(edges)))
    if g.num_nodes <= 2:
        return
    csr = freeze(g)
    sources = np.arange(csr.num_nodes, dtype=np.int64)
    blocked = [
        bfs_kernels.brandes_scores(csr, sources, batch_size=k) for k in (1, 2, 5)
    ]
    assert blocked[0].tobytes() == blocked[1].tobytes() == blocked[2].tobytes()


# ----------------------------------------------------------------------
# remaining property backends (knn, shared partners, λ1)
# ----------------------------------------------------------------------
@given(edge_lists, isolated)
def test_neighbor_connectivity_bitwise(edges, extra_nodes):
    g = build(edges, extra_nodes)
    assert_bits_equal(
        neighbor_connectivity(g, backend="python"),
        neighbor_connectivity(g, backend="csr"),
    )


@given(edge_lists)
def test_shared_partner_distribution_bitwise(edges):
    g = build(edges)
    assert_bits_equal(
        shared_partner_distribution(g, backend="python"),
        shared_partner_distribution(g, backend="csr"),
    )


@given(edge_lists)
@settings(max_examples=40)
def test_spectral_backends_share_one_matrix(edges):
    g = build(edges)
    py_mat = to_csr(g)
    cs_mat = freeze(g).adjacency_matrix()
    assert np.array_equal(py_mat.indptr, cs_mat.indptr)
    assert np.array_equal(py_mat.indices, cs_mat.indices)
    assert np.array_equal(py_mat.data, cs_mat.data)
    # byte-identical inputs pin λ1 only to solver tolerance: repeated eigsh
    # calls on one matrix can differ in the last bits, so last-bit equality
    # is not defined (tiny graphs use the deterministic power iteration)
    py = largest_eigenvalue(g, backend="python")
    cs = largest_eigenvalue(g, backend="csr")
    assert math.isclose(py, cs, rel_tol=1e-9, abs_tol=1e-9)


# ----------------------------------------------------------------------
# the full 12-property suite honors EvaluationConfig.backend
# ----------------------------------------------------------------------
def assert_property_sets_equal(py, cs) -> None:
    """Per-property engine contract: bit-identical, except the documented
    round-off properties — the clustering aggregates (PR 1's kernels sum in
    a different order) and λ1 (eigensolver tolerance)."""
    for name in PROPERTY_NAMES:
        a, b = py.value(name), cs.value(name)
        if name == "largest_eigenvalue":
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
        elif name in ("clustering", "degree_clustering"):
            if isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    assert math.isclose(a[k], b[k], rel_tol=1e-12, abs_tol=1e-12)
            else:
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        elif isinstance(a, dict):
            assert_bits_equal(a, b)
        else:
            assert bits(float(a)) == bits(float(b)), (name, a, b)


@given(edge_lists, isolated)
@settings(max_examples=15, deadline=None)
def test_property_suite_backend_equivalence(edges, extra_nodes):
    g = build(edges, extra_nodes)
    py = compute_properties(g, EvaluationConfig(backend="python"))
    cs = compute_properties(g, EvaluationConfig(backend="csr"))
    assert_property_sets_equal(py, cs)


def test_property_suite_sampled_backend_equivalence():
    g = powerlaw_cluster_graph(700, 4, 0.3, rng=11)
    cfg = dict(exact_threshold=100, path_sources=48, betweenness_pivots=24, seed=3)
    py = compute_properties(g, EvaluationConfig(backend="python", **cfg))
    cs = compute_properties(g, EvaluationConfig(backend="csr", **cfg))
    assert_property_sets_equal(py, cs)


# ----------------------------------------------------------------------
# disconnected graphs: only the largest component is swept
# ----------------------------------------------------------------------
def _two_component_graph() -> MultiGraph:
    # largest component: a 7-node star (diameter 2); far-flung smaller
    # component: a 5-node path (diameter 4).  A sweep that escaped the LCC
    # would report the path's larger diameter.
    star = [(0, i) for i in range(1, 7)]
    path = [(100, 101), (101, 102), (102, 103), (103, 104)]
    return MultiGraph.from_edges(star + path)


@pytest.mark.parametrize("backend", ["python", "csr"])
def test_eccentricity_lower_bound_stays_on_lcc(backend):
    g = _two_component_graph()
    for seed in range(8):
        assert eccentricity_lower_bound(g, rng=seed, backend=backend) == 2


@pytest.mark.parametrize("backend", ["python", "csr"])
def test_sampled_diameter_stays_on_lcc(backend):
    g = _two_component_graph()
    for seed in range(8):
        stats = shortest_path_stats(g, num_sources=3, rng=seed, backend=backend)
        assert stats.diameter == 2
        assert not stats.exact
        # the double sweep restarts inside the component as well
        assert set(stats.length_distribution) == {1, 2}


@pytest.mark.parametrize("backend", ["python", "csr"])
def test_betweenness_outside_lcc_is_absent(backend):
    g = _two_component_graph()
    scores = betweenness_centrality(g, backend=backend)
    assert set(scores) == set(range(7))  # star only


def test_high_diameter_graph_equivalence():
    # a long path exercises the many-tiny-level frontier rebuild (the
    # sort-based branch) rather than the block-state scan
    g = MultiGraph.from_edges([(i, i + 1) for i in range(3000)])
    py = shortest_path_stats(g, num_sources=5, rng=2, backend="python")
    cs = shortest_path_stats(g, num_sources=5, rng=2, backend="csr")
    assert py == cs
    assert cs.diameter == 3000


def test_int64_tier_matches_int32(monkeypatch):
    # blocks whose composite-id intermediates would overflow int32 used to
    # be refused; they now ride the int64 tier.  Shrinking the envelope to
    # nothing forces every block wide and must not change a single bit.
    g = MultiGraph.from_edges(
        [(i, (i * 7 + 1) % 400) for i in range(400)] + [(0, 1), (5, 5)]
    )
    csr = freeze(g)
    src = np.arange(0, 400, 7)
    narrow_hist = bfs_kernels.pair_length_histogram(csr, src, batch_size=16)
    narrow_dist = bfs_kernels.bfs_distance_block(csr, src)
    simple = bfs_kernels.simplified_lcc_snapshot(csr)
    pivots = np.arange(0, simple.num_nodes, 7)
    narrow_brandes = bfs_kernels.brandes_scores(simple, pivots, batch_size=16)
    narrow_single = bfs_kernels.brandes_scores(simple, pivots, batch_size=1)
    assert bfs_kernels._id_dtype(16, csr) == np.int32

    monkeypatch.setattr(bfs_kernels, "_COMPOSITE_ENVELOPE", 1)
    assert bfs_kernels._id_dtype(1, csr) == np.int64
    wide_hist = bfs_kernels.pair_length_histogram(csr, src, batch_size=16)
    wide_dist = bfs_kernels.bfs_distance_block(csr, src)
    wide_brandes = bfs_kernels.brandes_scores(simple, pivots, batch_size=16)
    wide_single = bfs_kernels.brandes_scores(simple, pivots, batch_size=1)

    assert np.array_equal(narrow_hist[0], wide_hist[0])
    assert narrow_hist[1] == wide_hist[1]
    assert np.array_equal(narrow_dist, wide_dist)
    assert narrow_brandes.tobytes() == wide_brandes.tobytes()
    assert narrow_single.tobytes() == wide_single.tobytes()


def test_sliced_gather_matches_unbounded():
    # gather_slots caps one level's transient gather (the out-of-core
    # evaluation knob); distances are segment-order independent
    g = MultiGraph.from_edges(
        [(i, (i * 13 + 3) % 500) for i in range(500)] + [(2, 2), (0, 1)]
    )
    csr = freeze(g)
    src = np.arange(0, 500, 11)
    full = bfs_kernels.pair_length_histogram(csr, src, batch_size=8)
    for cap in (1, 7, 64):
        sliced = bfs_kernels.pair_length_histogram(
            csr, src, batch_size=8, gather_slots=cap
        )
        assert np.array_equal(full[0], sliced[0])
        assert full[1] == sliced[1]
    assert np.array_equal(
        bfs_kernels.bfs_distance_block(csr, src),
        bfs_kernels.bfs_distance_block(csr, src, gather_slots=5),
    )


# ----------------------------------------------------------------------
# large-graph equivalence (multi-block kernels, the regime they exist for)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_large_graph_bfs_equivalence():
    g = powerlaw_cluster_graph(8_000, 6, 0.25, rng=99)
    g.add_edge(0, 0)  # loop
    g.add_edge(1, 2)  # parallel edge
    g.add_edge(1, 2)
    g.add_node("island")  # second component
    g.add_edge("island", "rock")

    py = shortest_path_stats(g, num_sources=96, rng=7, backend="python")
    cs = shortest_path_stats(g, num_sources=96, rng=7, backend="csr")
    assert py == cs

    b_py = betweenness_centrality(g, num_pivots=48, rng=7, backend="python")
    b_cs = betweenness_centrality(g, num_pivots=48, rng=7, backend="csr")
    assert_bits_equal(b_py, b_cs)

    assert_bits_equal(
        neighbor_connectivity(g, backend="python"),
        neighbor_connectivity(g, backend="csr"),
    )
    assert_bits_equal(
        shared_partner_distribution(g, backend="python"),
        shared_partner_distribution(g, backend="csr"),
    )
