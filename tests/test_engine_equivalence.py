"""Python ↔ CSR equivalence: property-based and large-graph checks.

The engine's contract is that every kernel computes the *same value* as its
pure-Python reference.  Hypothesis drives random multigraphs — loops and
parallel edges included — through freeze/thaw round trips and through each
kernel pair.  Integer-valued quantities (degree vector, joint degree
matrix, triangle counts, which stay integer-exact in float64) must match
exactly; the averaged clustering aggregates must match to float round-off
(their summation order differs between the backends).

The ``slow``-marked test repeats the exact checks on a graph two orders of
magnitude larger than anything hypothesis generates, so
``pytest -m "not slow"`` keeps the tier-1 budget while the full run still
exercises the regime the engine exists for.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import freeze, thaw
from repro.engine import kernels
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.multigraph import MultiGraph
from repro.metrics import basic, clustering

# random multigraphs over a small id space: loops and parallels both likely
edge_lists = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=1, max_size=80
)
isolated = st.lists(st.integers(0, 14), min_size=0, max_size=4)


def build(edges, extra_nodes=()) -> MultiGraph:
    return MultiGraph.from_edges(edges, nodes=extra_nodes)


def assert_clustering_equal(py: dict[int, float], cs: dict[int, float]) -> None:
    assert set(py) == set(cs)
    for k in py:
        assert math.isclose(py[k], cs[k], rel_tol=1e-12, abs_tol=1e-12)


# ----------------------------------------------------------------------
# freeze / thaw round trip
# ----------------------------------------------------------------------
@given(edge_lists, isolated)
def test_freeze_thaw_roundtrip(edges, extra_nodes):
    g = build(edges, extra_nodes)
    t = thaw(freeze(g))
    assert list(t.nodes()) == list(g.nodes())
    assert t.num_edges == g.num_edges
    for u in g.nodes():
        assert t.neighbor_multiplicities(u) == g.neighbor_multiplicities(u)


def reference_freeze_arrays(graph: MultiGraph):
    """``freeze``'s former per-entry loop: the byte-level oracle."""
    nodes = tuple(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    for i, u in enumerate(nodes):
        indptr[i + 1] = indptr[i] + graph.degree(u)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    pos = 0
    for u in nodes:
        for v, a in graph.adjacency_view(u).items():
            indices[pos : pos + a] = index[v]
            pos += a
    return indptr, indices


@given(edge_lists, isolated, st.lists(st.integers(0, 79), max_size=10))
def test_freeze_arrays_match_reference_loop(edges, extra_nodes, removals):
    g = build(edges, extra_nodes)
    for i in removals:  # emptied rows and reordered adjacency dicts
        u, v = edges[i % len(edges)]
        if g.has_edge(u, v):
            g.remove_edge(u, v)
    csr = freeze(g)
    indptr, indices = reference_freeze_arrays(g)
    for got, want in ((csr.indptr, indptr), (csr.indices, indices)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@given(edge_lists)
def test_freeze_degrees_match(edges):
    g = build(edges)
    csr = freeze(g)
    deg = csr.degree_array()
    for i, u in enumerate(csr.node_list):
        assert int(deg[i]) == g.degree(u)


# ----------------------------------------------------------------------
# kernel equivalence
# ----------------------------------------------------------------------
@given(edge_lists, isolated)
def test_degree_vector_kernel_exact(edges, extra_nodes):
    g = build(edges, extra_nodes)
    assert kernels.degree_vector(freeze(g)) == basic.degree_vector(g)


@given(edge_lists)
def test_degree_distribution_kernel_exact(edges):
    g = build(edges)
    py = basic.degree_distribution(g)
    cs = kernels.degree_distribution(freeze(g))
    assert py == cs


@given(edge_lists)
def test_jdm_kernel_exact(edges):
    g = build(edges)
    assert kernels.joint_degree_matrix(freeze(g)) == basic.joint_degree_matrix(g)


@given(edge_lists)
def test_jdd_kernel_exact(edges):
    g = build(edges)
    py = basic.joint_degree_distribution(g)
    cs = kernels.joint_degree_distribution(freeze(g))
    assert set(py) == set(cs)
    for pair in py:
        assert math.isclose(py[pair], cs[pair], rel_tol=1e-12)


@given(edge_lists)
def test_triangle_kernel_exact(edges):
    g = build(edges)
    # triangle counts are integer arithmetic carried in float64: exact
    assert kernels.triangles_per_node(freeze(g)) == clustering.triangles_per_node(g)


@given(edge_lists)
def test_clustering_kernels_match(edges):
    g = build(edges)
    csr = freeze(g)
    assert math.isclose(
        kernels.network_clustering(csr),
        clustering.network_clustering(g),
        rel_tol=1e-12,
        abs_tol=1e-15,
    )
    assert_clustering_equal(
        clustering.degree_dependent_clustering(g),
        kernels.degree_dependent_clustering(csr),
    )


# ----------------------------------------------------------------------
# large-graph equivalence (the regime the engine exists for)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_large_graph_equivalence():
    g = powerlaw_cluster_graph(8_000, 6, 0.25, rng=99)
    g.add_edge(0, 0)  # make sure the large case carries a loop
    g.add_edge(1, 2)  # ... and a parallel edge
    g.add_edge(1, 2)
    csr = freeze(g)
    assert kernels.degree_vector(csr) == basic.degree_vector(g)
    assert kernels.joint_degree_matrix(csr) == basic.joint_degree_matrix(g)
    assert kernels.triangles_per_node(csr) == clustering.triangles_per_node(g)
    assert math.isclose(
        kernels.network_clustering(csr),
        clustering.network_clustering(g),
        rel_tol=1e-12,
    )
    assert_clustering_equal(
        clustering.degree_dependent_clustering(g),
        kernels.degree_dependent_clustering(csr),
    )
    t = thaw(csr)
    assert t.num_edges == g.num_edges
    assert t.degrees() == g.degrees()
