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

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert r_py.attempts == r_csr.attempts
    assert r_py.accepted == r_csr.accepted
    assert r_py.num_candidates == r_csr.num_candidates
    assert math.isclose(
        r_py.initial_distance, r_csr.initial_distance, rel_tol=1e-12, abs_tol=1e-15
    )
    assert math.isclose(
        r_py.final_distance, r_csr.final_distance, rel_tol=1e-12, abs_tol=1e-15
    )
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
    assert r_py2.accepted == r_csr2.accepted
    assert math.isclose(
        r_py2.final_distance, r_csr2.final_distance, rel_tol=1e-12, abs_tol=1e-15
    )


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
