"""Python ↔ CSR rewiring-backend equivalence.

The CSR backend's contract is stronger than value equality: for a fixed
seed it must *replay the Python backend exactly* — same proposal stream,
same accept/reject decision at every attempt, hence an identical
accepted-swap trace, an identical report, and an identical final graph
(same adjacency dicts, same insertion order).  Hypothesis drives random
multigraphs — loops and parallel edges included — through both backends
with random flag combinations, protected-edge sets, patience, and attempt
caps; the ``slow``-marked case repeats the check on a graph two orders of
magnitude larger, where the vectorized windows, incremental-update, and
staleness machinery actually engage.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.engine.rewiring_kernels as rk
from repro.dk.dk_series import generate_2k
from repro.dk.rewiring import RewiringEngine
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.multigraph import MultiGraph
from repro.metrics.clustering import degree_dependent_clustering

edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=2, max_size=90
)
targets = st.dictionaries(
    st.integers(0, 24), st.floats(0.0, 1.0), min_size=1, max_size=12
)


def run_both(
    graph: MultiGraph,
    target: dict[int, float],
    seed: int,
    protected=None,
    forbid_loops=True,
    forbid_parallel=True,
    rc=40,
    max_attempts=None,
    patience=None,
):
    """Run both backends on copies; return engines, reports, graphs."""
    g_py, g_csr = graph.copy(), graph.copy()
    kw = dict(
        protected_edges=protected,
        forbid_loops=forbid_loops,
        forbid_parallel=forbid_parallel,
        record_trace=True,
    )
    e_py = RewiringEngine(g_py, target, rng=seed, backend="python", **kw)
    e_csr = RewiringEngine(g_csr, target, rng=seed, backend="csr", **kw)
    r_py = e_py.run(rc=rc, max_attempts=max_attempts, patience=patience)
    r_csr = e_csr.run(rc=rc, max_attempts=max_attempts, patience=patience)
    return e_py, e_csr, r_py, r_csr, g_py, g_csr


def assert_equivalent(e_py, e_csr, r_py, r_csr, g_py, g_csr):
    assert e_py.trace == e_csr.trace
    assert r_py == r_csr
    assert list(g_py.nodes()) == list(g_csr.nodes())
    for u in g_py.nodes():
        assert g_py.neighbor_multiplicities(u) == g_csr.neighbor_multiplicities(u)


@given(edge_lists, targets, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_backends_replay_identically(edges, target, seed):
    g = MultiGraph.from_edges(edges)
    assert_equivalent(*run_both(g, target, seed))


@given(
    edge_lists,
    targets,
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.integers(0, 40),
)
@settings(max_examples=60, deadline=None)
def test_backends_match_with_flags_and_protection(
    edges, target, seed, forbid_loops, forbid_parallel, n_protected
):
    g = MultiGraph.from_edges(edges)
    canon = {(min(u, v), max(u, v)) for u, v in g.edges()}
    protected = set(sorted(canon)[:n_protected])
    assert_equivalent(
        *run_both(
            g,
            target,
            seed,
            protected=protected,
            forbid_loops=forbid_loops,
            forbid_parallel=forbid_parallel,
        )
    )


@given(
    edge_lists,
    targets,
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2, 23]),
)
@settings(max_examples=30, deadline=None)
def test_backends_match_with_patience_and_cap(edges, target, seed, patience):
    # patience=0 is the edge case: the reference still performs the first
    # attempt (and keeps going while swaps are accepted)
    g = MultiGraph.from_edges(edges)
    assert_equivalent(
        *run_both(g, target, seed, rc=60, max_attempts=400, patience=patience)
    )


@given(edge_lists, targets, st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_second_run_continues_identical_stream(edges, target, seed):
    g = MultiGraph.from_edges(edges)
    e_py, e_csr, *_ = run_both(g, target, seed, rc=15)
    r_py2 = e_py.run(rc=10)
    r_csr2 = e_csr.run(rc=10)
    assert e_py.trace == e_csr.trace
    assert r_py2 == r_csr2


def test_subnormal_target_sum_is_handled_like_all_zero():
    # a target summing to a subnormal cannot normalize a distance (the
    # smallest overflows it to inf, after which nothing is ever accepted):
    # both cores skip the climb, as for an all-zero target, and warn nothing
    g = powerlaw_cluster_graph(60, 3, 0.3, rng=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        subnormal = run_both(g, {3: 5e-324}, seed=1, rc=20)
        zero = run_both(g, {3: 0.0}, seed=1, rc=20)
        tiny = run_both(g, {3: 1e-300}, seed=1, rc=20)
    assert subnormal[2] == subnormal[3] == zero[2] == zero[3]
    assert subnormal[2].attempts == 0
    assert subnormal[2].initial_distance == 0.0
    # a tiny but normal sum still climbs
    assert_equivalent(*tiny)
    assert tiny[2].accepted == 63


def test_tiny_normal_target_sum_is_handled_like_all_zero():
    # a normal sum can still overflow the distance it normalizes (an L1
    # of 4.59 over 2.5e-308): both cores skip the climb, as for an
    # all-zero target, and warn nothing
    g = powerlaw_cluster_graph(300, 4, 0.6, rng=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overflowing = run_both(g, {4: 2.5e-308}, seed=1, rc=5)
        zero = run_both(g, {4: 0.0}, seed=1, rc=5)
        tiny = run_both(g, {4: 1e-307}, seed=1, rc=5)
    assert overflowing[2] == overflowing[3] == zero[2] == zero[3]
    assert overflowing[2].attempts == 0
    assert overflowing[2].initial_distance == 0.0
    # a slightly larger sum still climbs
    assert_equivalent(*tiny)
    assert (tiny[2].accepted, tiny[2].attempts) == (311, 5920)


def nonzero(delta):
    return {node: dt for node, dt in delta.items() if dt}


def assert_closed_form_matches_overlay(g, x, y, a, b):
    closed = rk._closed_form_triangle_deltas(g, x, y, a, b)
    overlay = rk._overlay_triangle_deltas(g, x, y, a, b)
    assert nonzero(closed) == nonzero(overlay)


@given(edge_lists, st.data())
@settings(max_examples=200, deadline=None)
def test_closed_form_deltas_match_overlay(edges, data):
    # the closed form must return the overlay's nonzero per-node deltas
    # exactly, parallel edges and loops elsewhere in the graph included
    g = MultiGraph.from_edges(edges)
    pairs = list(g.edges())
    index = st.integers(0, len(pairs) - 1)
    x, y = pairs[data.draw(index)][:: data.draw(st.sampled_from([1, -1]))]
    a, b = pairs[data.draw(index)][:: data.draw(st.sampled_from([1, -1]))]
    assume(len({x, y, a, b}) == 4)
    assert_closed_form_matches_overlay(g, x, y, a, b)


@pytest.mark.parametrize(
    "edges",
    [
        # A_xy = 2 and y in N(b): (x, b) meets y through one copy of (x, y)
        [(0, 1), (0, 1), (2, 3), (3, 1), (1, 4), (4, 0), (4, 3), (0, 3), (3, 3)],
        # A_xa > 0: (x, b) meets a, (a, y) meets x, through one copy of
        # (a, b) and of (x, y) respectively
        [(0, 1), (2, 3), (0, 2), (0, 2), (2, 1), (1, 3), (0, 3), (4, 0), (4, 3)],
    ],
)
def test_closed_form_corrections(edges):
    g = MultiGraph.from_edges(edges)
    assert_closed_form_matches_overlay(g, 0, 1, 2, 3)
    assert_closed_form_matches_overlay(g, 1, 0, 3, 2)


@pytest.mark.parametrize(
    "x, y, a, b",
    [(0, 0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 1), (0, 1, 2, 0), (0, 1, 1, 2)],
)
def test_coincident_endpoints_are_scored_by_the_overlay(monkeypatch, x, y, a, b):
    # loops, y == b, and x == b / a == y (loops allowed) share nodes
    # between the four edge operations: the overlay scores them
    g = MultiGraph.from_edges(
        [(0, 0), (0, 1), (1, 2), (2, 2), (2, 0), (1, 3), (3, 0), (3, 2)]
    )
    reference = rk._overlay_triangle_deltas(g, x, y, a, b)

    def refuse(*args):
        raise AssertionError("closed form used for coincident endpoints")

    monkeypatch.setattr(rk, "_closed_form_triangle_deltas", refuse)
    assert rk.proposal_triangle_deltas(g, x, y, a, b) == reference


def test_incremental_state_matches_fresh_recount():
    g = MultiGraph.from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 2), (5, 5)]
    )
    target = {2: 0.9, 3: 0.4, 4: 0.1}
    e = RewiringEngine(
        g, target, forbid_loops=False, forbid_parallel=False,
        rng=3, backend="csr",
    )
    e.run(rc=80)
    fresh = degree_dependent_clustering(g)
    tracked = e.clustering_by_degree()
    for k, v in fresh.items():
        assert tracked[k] == pytest.approx(v, abs=1e-9)


@pytest.mark.parametrize("forbid_parallel", [True, False])
@pytest.mark.parametrize("forbid_loops", [True, False])
def test_dense_accepts_replay_identically(forbid_loops, forbid_parallel):
    # a stub-matched 2K graph far from a raised target accepts ~40 swaps
    # per stream window, so the CSR core's post-accept bookkeeping (rows
    # marked pending, patched corrections) runs thousands of times here
    source = powerlaw_cluster_graph(400, 4, 0.3, rng=5)
    g = generate_2k(source, rng=7)
    target = {k: min(1.0, 1.4 * v) for k, v in
              degree_dependent_clustering(source).items()}
    canon = sorted({(min(u, v), max(u, v)) for u, v in g.edges()})
    protected = set(canon[: len(canon) // 10])
    e_py, e_csr, r_py, r_csr, g_py, g_csr = run_both(
        g,
        target,
        seed=3,
        protected=protected,
        forbid_loops=forbid_loops,
        forbid_parallel=forbid_parallel,
        rc=50,
    )
    assert r_py.accepted > 500
    assert_equivalent(e_py, e_csr, r_py, r_csr, g_py, g_csr)


@pytest.mark.slow
def test_large_graph_rewiring_equivalence():
    g = powerlaw_cluster_graph(4000, 5, 0.2, rng=99)
    g.add_edge(0, 0)  # keep the multigraph paths engaged
    g.add_edge(1, 2)
    g.add_edge(1, 2)
    target = {k: min(1.0, 1.4 * v) for k, v in
              degree_dependent_clustering(g).items()}
    e_py, e_csr, r_py, r_csr, g_py, g_csr = run_both(
        g, target, seed=7, rc=10**9, max_attempts=60_000
    )
    assert r_py.accepted > 0  # the case must actually exercise commits
    assert_equivalent(e_py, e_csr, r_py, r_csr, g_py, g_csr)
