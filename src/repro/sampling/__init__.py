"""Crawling-based sampling under the paper's restricted access model.

Every crawler consumes a :class:`GraphAccess` wrapper (neighbor queries
only, with query accounting) and produces either a :class:`SamplingList`
(random walks — ordered, with repeats, as required by the re-weighted
estimators) or a plain set of queried nodes (BFS-family crawlers, which feed
subgraph sampling only).
"""

from repro.sampling.access import GraphAccess
from repro.sampling.faults import (
    FaultPolicy,
    FaultyAccess,
    policy_from_knobs,
    spawn_fault_seed,
)
from repro.sampling.walkers import (
    SamplingList,
    random_walk,
    non_backtracking_random_walk,
    metropolis_hastings_random_walk,
)
from repro.sampling.crawlers import (
    CrawlResult,
    bfs_crawl,
    snowball_crawl,
    forest_fire_crawl,
    random_walk_crawl,
)
from repro.sampling.frontier import frontier_sampling
from repro.sampling.subgraph import SampledSubgraph, build_subgraph

__all__ = [
    "frontier_sampling",
    "GraphAccess",
    "FaultPolicy",
    "FaultyAccess",
    "policy_from_knobs",
    "spawn_fault_seed",
    "SamplingList",
    "random_walk",
    "non_backtracking_random_walk",
    "metropolis_hastings_random_walk",
    "CrawlResult",
    "bfs_crawl",
    "snowball_crawl",
    "forest_fire_crawl",
    "random_walk_crawl",
    "SampledSubgraph",
    "build_subgraph",
]
