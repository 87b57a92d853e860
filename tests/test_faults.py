"""The imperfect-crawler regime layer (:mod:`repro.sampling.faults`).

Pins down the two contracts the fault layer is built on:

* a **null policy is a bit-identical passthrough** — crawls over a
  zero-fault :class:`FaultyAccess` equal crawls over the matching ideal
  access trace for trace, for all four crawlers, on both the python and
  CSR access classes, and
* a crawl is a **pure function of ``(seed, policy)``** — the same fault
  seed reproduces the same degraded crawl in-process and across spawned
  worker processes.

Plus the degradation semantics: dead seeds re-seed deterministically,
budget exhaustion mid-retry keeps partial results, and the backfilled
unit coverage of the crawlers' internals (snowball's ``k``-cap, forest
fire's uniform-restart revival, the geometric burst's edge cases).
"""

from __future__ import annotations

import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.dispatch import ensure_csr
from repro.errors import (
    BudgetExhaustedError,
    NodeChurnedError,
    QueryFailedError,
    SamplingError,
)
from repro.graph.generators import powerlaw_cluster_graph, star_graph
from repro.sampling.access import GraphAccess
from repro.sampling.crawlers import (
    CrawlResult,
    _geometric,
    _revive,
    bfs_crawl,
    crawl_result_from_walk,
    forest_fire_crawl,
    random_walk_crawl,
    snowball_crawl,
)
from repro.sampling.faults import (
    FaultPolicy,
    FaultyAccess,
    policy_from_knobs,
    spawn_fault_seed,
)
from repro.sampling.frontier import frontier_sampling
from repro.sampling.walkers import (
    metropolis_hastings_random_walk,
    non_backtracking_random_walk,
)
from repro.service.protocol import normalize_request, request_key


def _non_backtracking_crawl(access, target_queried, seed=None, rng=None):
    return crawl_result_from_walk(
        non_backtracking_random_walk(access, target_queried, seed=seed, rng=rng)
    )


def _metropolis_hastings_crawl(access, target_queried, seed=None, rng=None):
    return crawl_result_from_walk(
        metropolis_hastings_random_walk(access, target_queried, seed=seed, rng=rng)
    )


def _frontier_crawl(access, target_queried, seed=None, rng=None):
    seeds = None if seed is None else [seed]
    return crawl_result_from_walk(
        frontier_sampling(access, target_queried, seeds=seeds, rng=rng)
    )


CRAWLERS = {
    "bfs": bfs_crawl,
    "snowball": snowball_crawl,
    "ff": forest_fire_crawl,
    "walk": random_walk_crawl,
    "nbrw": _non_backtracking_crawl,
    "mh": _metropolis_hastings_crawl,
    "frontier": _frontier_crawl,
}

_GRAPH_SEED = 5


def _graph():
    """Deterministic heavy-tailed test graph (module-level for pickling)."""
    return powerlaw_cluster_graph(150, 3, 0.3, rng=_GRAPH_SEED)


def _trace(result: CrawlResult):
    return result.queried, result.neighbors


# ---------------------------------------------------------------------------
# policy object
# ---------------------------------------------------------------------------
class TestFaultPolicy:
    def test_default_is_null(self):
        assert FaultPolicy().is_null
        assert FaultPolicy().label() == "ideal"

    def test_nonzero_knobs_are_not_null(self):
        assert not FaultPolicy(failure_rate=0.1).is_null
        assert not FaultPolicy(rate_limit=10).is_null
        assert not FaultPolicy(truncate_at=5).is_null
        assert not FaultPolicy(churn=0.2).is_null

    def test_label_encodes_active_knobs_only(self):
        policy = FaultPolicy(failure_rate=0.1, rate_limit=50)
        assert policy.label() == "f0.1+rl50"
        full = FaultPolicy(failure_rate=0.2, rate_limit=5, truncate_at=3, churn=0.4)
        assert full.label() == "f0.2+rl5+t3+c0.4"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_rate": -0.1},
            {"failure_rate": 1.0},
            {"max_retries": -1},
            {"backoff_base": -1.0},
            {"rate_limit": -1},
            {"truncate_at": -2},
            {"churn": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SamplingError):
            FaultPolicy(**kwargs)

    def test_policy_from_knobs_all_zero_is_none(self):
        assert policy_from_knobs() is None
        assert policy_from_knobs(fault_rate=0.1) == FaultPolicy(failure_rate=0.1)

    def test_spawn_fault_seed_deterministic_and_distinct(self):
        assert spawn_fault_seed(42) == spawn_fault_seed(42)
        assert spawn_fault_seed(42) != spawn_fault_seed(43)
        assert spawn_fault_seed(42, 0) != spawn_fault_seed(42, 1)
        assert spawn_fault_seed(42, 0) != spawn_fault_seed(42)


# ---------------------------------------------------------------------------
# satellite: zero-fault passthrough (hypothesis)
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1), target=st.integers(5, 60))
@pytest.mark.parametrize("crawler", sorted(CRAWLERS))
def test_null_policy_is_bit_identical_passthrough(crawler, rng_seed, target):
    """A zero-fault FaultyAccess produces the identical CrawlResult trace
    as the plain access it wraps — over the MultiGraph and over its
    frozen snapshot alike."""
    crawl = CRAWLERS[crawler]
    g = _graph()
    csr = ensure_csr(g)
    pairs = [
        (GraphAccess(g), FaultyAccess(g, FaultPolicy(), fault_seed=99)),
        (GraphAccess(csr), FaultyAccess(csr, FaultPolicy(), fault_seed=99)),
    ]
    for ideal, faulty in pairs:
        expected = crawl(ideal, target, rng=rng_seed)
        got = crawl(faulty, target, rng=rng_seed)
        assert _trace(got) == _trace(expected)
        # null-policy call accounting coincides with distinct-node counting
        assert faulty.calls == faulty.num_queried


@settings(max_examples=15, deadline=None)
@given(rng_seed=st.integers(0, 2**32 - 1))
def test_null_policy_budget_error_matches_ideal(rng_seed):
    """Budget exhaustion under a null policy raises exactly like the
    ideal access (strict crawls still fail loudly)."""
    g = _graph()
    target = g.num_nodes  # unreachable under the tiny budget below
    ideal = GraphAccess(g, budget=10)
    faulty = FaultyAccess(g, FaultPolicy(), fault_seed=0, budget=10)
    with pytest.raises(BudgetExhaustedError):
        bfs_crawl(ideal, target, rng=rng_seed)
    with pytest.raises(BudgetExhaustedError):
        bfs_crawl(faulty, target, rng=rng_seed)


# ---------------------------------------------------------------------------
# satellite: (seed, policy) determinism, in-process and across processes
# ---------------------------------------------------------------------------
_POLICY = FaultPolicy(failure_rate=0.2, rate_limit=15, truncate_at=6, churn=0.1)


def _crawl_under_faults(crawler: str, fault_seed: int, rng_seed: int):
    """Module-level so a spawned worker can run the identical crawl."""
    access = FaultyAccess(_graph(), _POLICY, fault_seed=fault_seed, budget=60)
    result = CRAWLERS[crawler](access, 60, rng=rng_seed)
    return result.queried, sorted(result.neighbors.items())


@settings(max_examples=10, deadline=None)
@given(fault_seed=st.integers(0, 2**64 - 1), rng_seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("crawler", sorted(CRAWLERS))
def test_fixed_seed_and_policy_reproduce_in_process(crawler, fault_seed, rng_seed):
    first = _crawl_under_faults(crawler, fault_seed, rng_seed)
    second = _crawl_under_faults(crawler, fault_seed, rng_seed)
    assert first == second
    assert 0 < len(first[0]) <= 60


@pytest.mark.parametrize("crawler", sorted(CRAWLERS))
def test_fixed_seed_and_policy_reproduce_across_processes(crawler):
    """The same (seed, policy) replays the same degraded crawl in a
    freshly spawned interpreter — the cross-process half of the
    determinism contract the jobs=N sweeps rely on."""
    expected = _crawl_under_faults(crawler, 1234, 7)
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        got = pool.submit(_crawl_under_faults, crawler, 1234, 7).result()
    assert got == expected


def test_python_and_csr_access_agree_under_faults():
    """FaultyAccess over the MultiGraph and over its frozen snapshot
    inject the identical fault stream, re-seeds included (no explicit
    seed: the snapshot lists its nodes in the MultiGraph's order)."""
    g = _graph()
    csr = ensure_csr(g)
    pol = _POLICY
    a = FaultyAccess(g, pol, fault_seed=42, budget=50)
    b = FaultyAccess(csr, pol, fault_seed=42, budget=50)
    ra = bfs_crawl(a, 50, rng=7)
    rb = bfs_crawl(b, 50, rng=7)
    assert _trace(ra) == _trace(rb)
    assert a.fault_stats == b.fault_stats


# ---------------------------------------------------------------------------
# fault semantics
# ---------------------------------------------------------------------------
class TestFaultSemantics:
    def test_truncation_caps_neighbor_lists_and_degree(self):
        g = star_graph(10)
        access = FaultyAccess(g, FaultPolicy(truncate_at=3), fault_seed=0)
        nbrs = access.query(0)  # hub, degree 10
        assert len(nbrs) == 3
        assert access.degree(0) == 3  # the crawler can't see past the page
        assert access.fault_stats["truncated"] == 1

    def test_churned_node_raises_and_repeats_are_free(self):
        g = _graph()
        # churn=1.0: the very first query churns deterministically
        access = FaultyAccess(g, FaultPolicy(churn=1.0), fault_seed=0)
        with pytest.raises(NodeChurnedError):
            access.query(0)
        calls = access.calls
        with pytest.raises(NodeChurnedError):
            access.query(0)  # memoized death: no second charge
        assert access.calls == calls == 1

    def test_retries_exhausted_raises_query_failed(self):
        g = _graph()
        pol = FaultPolicy(failure_rate=0.95, max_retries=2)
        # find a fault seed whose first three draws all fail
        for fault_seed in range(200):
            r = random.Random(fault_seed)
            if all(r.random() < pol.failure_rate for _ in range(3)):
                break
        else:
            pytest.fail("no triple-failure seed in range")
        access = FaultyAccess(g, pol, fault_seed=fault_seed)
        with pytest.raises(QueryFailedError):
            access.query(0)
        assert access.calls == 3  # every failed attempt was charged

    def test_rate_limit_window_charges_extra_call(self):
        g = _graph()
        access = FaultyAccess(g, FaultPolicy(rate_limit=3), fault_seed=0)
        for node in list(g.nodes())[:3]:
            access.query(node)
        # third charged call landed on the window: one wasted call added
        assert access.calls == 4
        assert access.fault_stats["rate_limit_hits"] == 1

    def test_backoff_is_accounting_only(self):
        g = _graph()
        pol = FaultPolicy(failure_rate=0.9, max_retries=5, backoff_base=0.5)
        for fault_seed in range(500):
            r = random.Random(fault_seed)
            # first attempt fails (backoff accrues), second succeeds
            if r.random() < pol.failure_rate and r.random() >= pol.failure_rate:
                break
        else:
            pytest.fail("no fail-then-succeed seed in range")
        access = FaultyAccess(g, pol, fault_seed=fault_seed)
        nbrs = access.query(0)
        assert nbrs  # the retry succeeded
        assert access.fault_stats["simulated_wait_seconds"] == 0.5
        assert access.calls == 2


# ---------------------------------------------------------------------------
# satellite: dead seeds re-seed; budget exhaustion mid-retry
# ---------------------------------------------------------------------------
def _churning_first_query_seed(churn: float) -> int:
    """A fault seed whose very first churn draw kills the node."""
    for fault_seed in range(500):
        if random.Random(fault_seed).random() < churn:
            return fault_seed
    raise AssertionError("no churning seed in range")


@pytest.mark.parametrize("crawler", sorted(CRAWLERS))
def test_seed_node_that_churns_reseeds_deterministically(crawler):
    """A seed node that dies on the very first query must not kill the
    crawl: the crawler draws a fresh uniform seed from its own generator
    and the recovery is reproducible."""
    g = _graph()
    pol = FaultPolicy(churn=0.3)
    fault_seed = _churning_first_query_seed(pol.churn)

    def run():
        access = FaultyAccess(g, pol, fault_seed=fault_seed, budget=40)
        return CRAWLERS[crawler](access, 40, seed=0, rng=11), access

    result, access = run()
    assert 0 not in result.queried  # the dead seed contributed nothing
    assert result.num_queried > 0
    assert access.fault_stats["churned"] >= 1
    again, _ = run()
    assert _trace(result) == _trace(again)


@pytest.mark.parametrize("crawler", ["bfs", "snowball", "ff"])
def test_frontier_crawl_reseeds_when_a_successful_query_empties_it(crawler):
    """Seeded in a 3-node component of a 203-node graph under a fault
    regime, a frontier crawler that exhausts the component re-seeds and
    reaches its target, whichever fresh neighbours it enqueues."""
    g = powerlaw_cluster_graph(200, 3, 0.3, rng=_GRAPH_SEED)
    g.add_edge(200, 201)
    g.add_edge(201, 202)
    access = FaultyAccess(g, FaultPolicy(rate_limit=1000), fault_seed=0)
    result = CRAWLERS[crawler](access, 40, seed=200, rng=11)
    assert result.num_queried == 40
    assert {200, 201, 202} <= set(result.queried)


def test_budget_exhaustion_mid_retry_raises_from_query():
    """Exhaustion can fire partway through a retry loop — the remaining
    budget is checked before every charged attempt."""
    g = _graph()
    pol = FaultPolicy(failure_rate=0.95, max_retries=5)
    for fault_seed in range(500):
        r = random.Random(fault_seed)
        if all(r.random() < pol.failure_rate for _ in range(3)):
            break
    access = FaultyAccess(g, pol, fault_seed=fault_seed, budget=3)
    with pytest.raises(BudgetExhaustedError):
        access.query(0)  # three failed attempts eat the whole budget
    assert access.calls == 3
    assert access.budget_exhausted()


@pytest.mark.parametrize("crawler", sorted(CRAWLERS))
def test_lenient_crawl_keeps_partial_result_on_exhaustion(crawler):
    """Under a lossy regime the call budget runs out before the node
    target; the crawl ends with what it has instead of raising."""
    g = _graph()
    pol = FaultPolicy(failure_rate=0.5, max_retries=3)
    access = FaultyAccess(g, pol, fault_seed=3, budget=25)
    result = CRAWLERS[crawler](access, g.num_nodes, seed=0, rng=11)
    assert 0 < result.num_queried < g.num_nodes
    assert access.calls <= 25


# ---------------------------------------------------------------------------
# satellite: backfilled crawler-internal coverage
# ---------------------------------------------------------------------------
class TestSnowballKCap:
    def test_k_cap_limits_expansion_per_node(self):
        hub_degree = 12
        g = star_graph(hub_degree)
        result = snowball_crawl(GraphAccess(g), 4, seed=0, k=3, rng=1)
        # hub expanded at most k=3 leaves; the 4th node came from revival
        assert result.num_queried == 4
        assert result.queried[0] == 0

    def test_invalid_k_rejected(self):
        g = star_graph(3)
        with pytest.raises(SamplingError):
            snowball_crawl(GraphAccess(g), 2, k=0)

    @settings(max_examples=20, deadline=None)
    @given(rng_seed=st.integers(0, 2**32 - 1))
    def test_unbounded_k_equals_bfs(self, rng_seed):
        """With k at least the max degree the per-node sample never
        triggers, so snowball degenerates to BFS trace for trace."""
        g = _graph()
        expected = bfs_crawl(GraphAccess(g), 50, rng=rng_seed)
        got = snowball_crawl(GraphAccess(g), 50, k=10_000, rng=rng_seed)
        assert _trace(got) == _trace(expected)


class TestForestFireRevive:
    def test_revive_picks_unvisited_neighbor_of_sampled_node(self):
        result = CrawlResult()
        result.record("a", ["b", "c"])
        result.record("b", ["a", "d"])
        queue: deque = deque()
        enqueued = {"a", "b"}
        _revive(queue, enqueued, result, random.Random(0))
        assert len(queue) == 1
        assert queue[0] in {"c", "d"}
        assert queue[0] in enqueued

    def test_revive_leaves_queue_empty_when_component_exhausted(self):
        result = CrawlResult()
        result.record("a", ["b"])
        result.record("b", ["a"])
        queue: deque = deque()
        _revive(queue, {"a", "b"}, result, random.Random(0))
        assert not queue

    def test_forest_fire_completes_via_revival_when_fire_keeps_dying(self):
        """With p_forward near zero almost every burst burns nothing, so
        the crawl advances one uniform restart at a time — and still
        reaches the target."""
        g = _graph()
        result = forest_fire_crawl(GraphAccess(g), 30, p_forward=0.01, rng=3)
        assert result.num_queried == 30

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_p_forward_rejected(self, p):
        g = star_graph(3)
        with pytest.raises(SamplingError):
            forest_fire_crawl(GraphAccess(g), 2, p_forward=p)


class TestGeometric:
    def test_p_zero_returns_zero_without_touching_rng(self):
        rng = random.Random(99)
        expected_next = random.Random(99).random()
        assert _geometric(0.0, rng) == 0
        assert rng.random() == expected_next  # no draw was consumed

    def test_negative_p_returns_zero(self):
        assert _geometric(-1.0, random.Random(0)) == 0

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_p_at_least_one_raises(self, p):
        with pytest.raises(SamplingError):
            _geometric(p, random.Random(0))

    def test_mean_matches_parameterization(self):
        rng = random.Random(12345)
        draws = [_geometric(0.7, rng) for _ in range(20_000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 0.7 / 0.3) < 0.1


# ---------------------------------------------------------------------------
# service protocol: fault knobs are normalized and content-addressed
# ---------------------------------------------------------------------------
class TestServiceFaultParams:
    def test_defaults_fill_to_ideal(self):
        params = normalize_request("evaluate", {"dataset": "anybeat"})
        assert params["fault_rate"] == 0.0
        assert params["rate_limit"] == 0
        assert params["truncate_at"] == 0
        assert params["churn"] == 0.0

    def test_explicit_zeros_share_the_ideal_content_address(self):
        """An old-style request (no fault knobs) and one spelling out the
        zero defaults are the same cached computation."""
        bare = normalize_request("evaluate", {"dataset": "anybeat"})
        explicit = normalize_request(
            "evaluate",
            {"dataset": "anybeat", "fault_rate": 0.0, "rate_limit": 0,
             "truncate_at": 0, "churn": 0.0},
        )
        assert request_key("evaluate", bare) == request_key("evaluate", explicit)

    def test_nonzero_knobs_change_the_content_address(self):
        bare = normalize_request("restore", {"dataset": "anybeat"})
        faulty = normalize_request(
            "restore", {"dataset": "anybeat", "fault_rate": 0.1}
        )
        assert request_key("restore", bare) != request_key("restore", faulty)
