"""Crawling methods used by the subgraph-sampling baselines.

The paper compares against subgraph sampling driven by four crawlers
(Section V-D): breadth-first search, snowball sampling (at most ``k``
random neighbors explored per node, ``k = 50``), forest fire sampling
(geometric burst of neighbors, ``p_f = 0.7``, with uniform-restart revival
when the fire dies), and the random walk itself.

Each crawler stops once ``target_queried`` distinct nodes have been queried
and returns a :class:`CrawlResult` from which the induced subgraph is built.

Fault tolerance
---------------
Every crawler degrades gracefully under an imperfect-crawler regime
(:mod:`repro.sampling.faults`): a node whose query faults
(:class:`~repro.errors.CrawlFaultError` — churned away, or transient
retries exhausted) is skipped; a crawl whose frontier dies — including a
seed node that churns on the very first query — re-seeds
deterministically (revival from sampled territory first, then a bounded
number of fresh uniform seeds drawn from the crawler's own generator);
and budget exhaustion (:class:`~repro.errors.BudgetExhaustedError`, which
under faults counts charged API calls and can fire mid-retry) ends the
crawl with the partial result instead of raising.  On an ideal access —
or a :class:`~repro.sampling.faults.FaultyAccess` with a null policy —
none of these paths execute and the strict behavior is unchanged:
shortfalls raise :class:`~repro.errors.SamplingError` and the crawl
trace is bit-identical to what this module always produced.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import BudgetExhaustedError, CrawlFaultError, SamplingError
from repro.graph.multigraph import Node
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import SamplingList, random_walk
from repro.utils.rng import ensure_rng

DEFAULT_SNOWBALL_K = 50  # Ref. [28] via the paper's Section V-E
DEFAULT_FOREST_FIRE_P = 0.7  # Ref. [24] via the paper's Section V-E

#: Cap on fresh uniform re-seeds a fault-tolerant crawl may draw.  Bounds
#: the crawl when churn has killed everything reachable and there is no
#: call budget to run out of; each re-seed is one deterministic draw from
#: the crawler's generator, so the cap never affects reproducibility.
MAX_RESEEDS = 100


@dataclass
class CrawlResult:
    """Outcome of a crawl: queried nodes in query order plus their adjacency."""

    queried: list[Node] = field(default_factory=list)
    neighbors: dict[Node, list[Node]] = field(default_factory=dict)

    @property
    def num_queried(self) -> int:
        """Number of distinct queried nodes."""
        return len(self.queried)

    def record(self, node: Node, nbrs: list[Node]) -> None:
        """Record that ``node`` was queried with adjacency ``nbrs``."""
        if node not in self.neighbors:
            self.queried.append(node)
            self.neighbors[node] = nbrs


def _lenient(access: GraphAccess) -> bool:
    """True when ``access`` injects a non-null fault policy — the regime
    in which crawlers skip faulted nodes and keep partial results."""
    policy = access.fault_policy
    return policy is not None and not policy.is_null


def bfs_crawl(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    rng: random.Random | int | None = None,
) -> CrawlResult:
    """Breadth-first search crawl: explore all neighbors of the earliest
    explored node, repeatedly, until the query budget is met."""
    return _frontier_crawl(
        access, target_queried, seed, rng, "BFS", lambda fresh, r: fresh
    )


def snowball_crawl(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    k: int = DEFAULT_SNOWBALL_K,
    rng: random.Random | int | None = None,
) -> CrawlResult:
    """Snowball sampling: BFS that expands at most ``k`` randomly chosen
    distinct neighbors from each queried node."""
    if k < 1:
        raise SamplingError(f"snowball k must be >= 1, got {k}")
    return _frontier_crawl(
        access,
        target_queried,
        seed,
        rng,
        "snowball",
        lambda fresh, r: fresh if len(fresh) <= k else r.sample(fresh, k),
    )


def forest_fire_crawl(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    p_forward: float = DEFAULT_FOREST_FIRE_P,
    rng: random.Random | int | None = None,
) -> CrawlResult:
    """Forest fire sampling: from each burning node, burn a geometric number
    of unvisited neighbors (mean ``p_f / (1 - p_f)``).

    When the fire dies before the budget is met, it is revived from a node
    chosen uniformly at random among the already sampled nodes, as in
    Kurant et al. (the paper's stated convention).
    """
    if not 0.0 < p_forward < 1.0:
        raise SamplingError(f"forest fire p_forward must be in (0, 1), got {p_forward}")
    return _frontier_crawl(
        access,
        target_queried,
        seed,
        rng,
        "forest fire",
        lambda fresh, r: r.sample(fresh, min(_geometric(p_forward, r), len(fresh))),
    )


def _frontier_crawl(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None,
    rng: random.Random | int | None,
    label: str,
    expand: Callable[[list[Node], random.Random], list[Node]],
) -> CrawlResult:
    """The one loop behind every frontier crawler.

    Queries frontier nodes first-in first-out; ``expand`` picks which of
    a queried node's distinct unvisited neighbors (in first-seen order)
    join the frontier.  A frontier that empties before the budget is met
    is revived from sampled territory (:func:`_revive`); under a fault
    regime a crawl with nothing left to revive from re-seeds
    (:func:`_reseed`).
    """
    r = ensure_rng(rng)
    start = seed if seed is not None else access.random_seed(r)
    result = CrawlResult()
    lenient = _lenient(access)
    reseeds = 0
    queue: deque[Node] = deque([start])
    enqueued: set[Node] = {start}
    while result.num_queried < target_queried:
        if not queue:
            _revive(queue, enqueued, result, r)
            if not queue and lenient:
                reseeds = _reseed(queue, enqueued, result, access, r, reseeds)
            if not queue:
                break
        u = queue.popleft()
        try:
            nbrs = access.query(u)
        except CrawlFaultError:
            continue
        except BudgetExhaustedError:
            if lenient:
                break
            raise
        result.record(u, nbrs)
        for v in expand(_distinct_unvisited(nbrs, enqueued), r):
            enqueued.add(v)
            queue.append(v)
    _check_reached(result, target_queried, label, lenient)
    return result


def random_walk_crawl(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    rng: random.Random | int | None = None,
) -> CrawlResult:
    """Random-walk crawl: the simple walk viewed as a crawler (ordered
    repeats dropped, only distinct queried nodes kept)."""
    walk = random_walk(access, target_queried, seed=seed, rng=rng)
    return crawl_result_from_walk(walk)


def crawl_result_from_walk(walk: SamplingList) -> CrawlResult:
    """Project a walk's :class:`SamplingList` onto a :class:`CrawlResult`."""
    result = CrawlResult()
    for node in walk.nodes:
        result.record(node, walk.neighbors[node])
    return result


def _distinct_unvisited(nbrs: list[Node], enqueued: set[Node]) -> list[Node]:
    """Distinct neighbors not yet enqueued, preserving first-seen order."""
    seen: set[Node] = set()
    out: list[Node] = []
    for v in nbrs:
        if v not in enqueued and v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _revive(
    queue: deque, enqueued: set[Node], result: CrawlResult, rng: random.Random
) -> None:
    """Restart a dead crawl from a random already-sampled node's neighbor.

    Any unvisited neighbor of any sampled node re-seeds the frontier; if no
    such neighbor exists the sampled component is exhausted and the queue is
    left empty for the caller to detect.
    """
    candidates: list[Node] = []
    for u in result.queried:
        candidates.extend(
            v for v in result.neighbors[u] if v not in enqueued
        )
    if candidates:
        fresh = rng.choice(candidates)
        enqueued.add(fresh)
        queue.append(fresh)


def _reseed(
    queue: deque,
    enqueued: set[Node],
    result: CrawlResult,
    access: GraphAccess,
    rng: random.Random,
    reseeds: int,
) -> int:
    """Fault-regime frontier recovery; returns the updated re-seed count.

    Revival from sampled territory is tried first (same convention as the
    ideal forest fire); when nothing sampled remains reachable, a fresh
    uniform seed is drawn from the crawler's generator — the path a crawl
    whose seed node churned on its very first query takes.  Both steps
    consume only the crawler's own rng, so recovery is as deterministic
    as the crawl itself.  At most :data:`MAX_RESEEDS` fresh seeds are
    drawn; after that the queue is left empty for the caller to stop.
    """
    if result.queried:
        _revive(queue, enqueued, result, rng)
        if queue:
            return reseeds
    if reseeds >= MAX_RESEEDS:
        return reseeds
    fresh = access.random_seed(rng)
    enqueued.add(fresh)
    queue.append(fresh)
    return reseeds + 1


def _geometric(p: float, rng: random.Random) -> int:
    """Geometric draw on {0, 1, 2, ...} with success prob ``1 - p``.

    ``P(X = x) = (1 - p) p^x`` so the mean is ``p / (1 - p)``, matching the
    paper's forest-fire parameterization.  ``p = 0`` always burns nothing
    (without touching the generator); ``p = 1`` would burn forever and is
    rejected rather than looping.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        raise SamplingError(f"geometric burst requires p < 1, got {p}")
    x = 0
    while rng.random() < p:
        x += 1
    return x


def _check_reached(
    result: CrawlResult, target: int, label: str, lenient: bool = False
) -> None:
    if lenient:
        # under a fault regime a shortfall is the measured outcome, not an
        # error — but an empty crawl has nothing to build a subgraph from
        if result.num_queried == 0:
            raise SamplingError(
                f"{label} crawl sampled nothing under the fault regime"
            )
        return
    if result.num_queried < target:
        raise SamplingError(
            f"{label} crawl exhausted the reachable component at "
            f"{result.num_queried} < {target} queried nodes"
        )
