"""Method registry: the six methods compared throughout the paper.

``bfs`` / ``snowball`` / ``ff`` / ``rw`` are subgraph sampling with the
corresponding crawler; ``gjoka`` and ``proposed`` are the generative
methods.  :func:`run_methods_once` executes one fair-comparison run: same
seed for every crawler, same walk shared by ``rw`` / ``gjoka`` /
``proposed``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.graph.multigraph import MultiGraph, Node
from repro.restore.gjoka import gjoka_generate
from repro.restore.restorer import restore_from_walk
from repro.sampling.access import GraphAccess, crawl_budget
from repro.sampling.crawlers import (
    bfs_crawl,
    forest_fire_crawl,
    snowball_crawl,
)
from repro.sampling.faults import FaultPolicy, FaultyAccess, spawn_fault_seed
from repro.sampling.subgraph import build_subgraph
from repro.sampling.walkers import SamplingList, random_walk
from repro.utils.rng import ensure_rng

METHOD_NAMES: tuple[str, ...] = ("bfs", "snowball", "ff", "rw", "gjoka", "proposed")
SUBGRAPH_METHODS: tuple[str, ...] = ("bfs", "snowball", "ff", "rw")
GENERATIVE_METHODS: tuple[str, ...] = ("gjoka", "proposed")

# Display labels matching the paper's tables.
METHOD_LABELS: dict[str, str] = {
    "bfs": "BFS",
    "snowball": "Snowball",
    "ff": "FF",
    "rw": "RW",
    "gjoka": "Gjoka et al.",
    "proposed": "Proposed",
}


@dataclass
class MethodOutput:
    """One method's generated graph plus its generation timings."""

    method: str
    graph: MultiGraph
    total_seconds: float
    rewiring_seconds: float = 0.0


# Fixed fault-stream slots per access construction: the shared walk and
# each BFS-family crawler draw faults from their own SeedSequence child,
# so adding/removing methods from a run never shifts another method's
# fault stream.
_FAULT_SLOTS = {"walk": 0, "bfs": 1, "snowball": 2, "ff": 3}


def run_methods_once(
    original: MultiGraph,
    fraction: float,
    methods: tuple[str, ...] = METHOD_NAMES,
    rc: float = 50.0,
    rng: random.Random | int | None = None,
    max_rewiring_attempts: int | None = None,
    backend: str = "auto",
    fault_policy: FaultPolicy | None = None,
    fault_seed: int | None = None,
) -> dict[str, MethodOutput]:
    """Run one fair-comparison round of the requested methods.

    Parameters
    ----------
    original:
        The hidden graph (each method sees it only through a fresh
        :class:`GraphAccess`).
    fraction:
        Fraction of nodes to query (the paper sweeps 1%-10%).
    methods:
        Subset of :data:`METHOD_NAMES` to run.
    rc:
        Rewiring coefficient for the generative methods.
    rng:
        Controls the shared seed node, every crawler, and the generation
        phases.
    backend:
        Rewiring compute backend forwarded to the generative methods.
    fault_policy:
        Imperfect-crawler regime (:mod:`repro.sampling.faults`).  When
        non-null, every method crawls through a fault-injecting access
        with an API-*call* budget of ``target`` — the calls an ideal
        crawler would spend — so retries, rate-limit waits, and churn
        discoveries eat into the sample a method can afford.  ``None``
        (or a null policy) reproduces ideal crawling bit-identically.
    fault_seed:
        Base of the per-method fault streams.  The harness passes a
        dedicated :func:`~repro.sampling.faults.spawn_fault_seed` child
        of the pre-spawned run seed; when omitted under a non-null
        policy, one is drawn from ``rng`` (still deterministic for a
        fixed ``(rng seed, policy)``, but prefer passing it).
    """
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise ExperimentError(f"unknown methods: {unknown}; known: {METHOD_NAMES}")
    r = ensure_rng(rng)
    target = crawl_budget(fraction, original.num_nodes)
    seed = GraphAccess(original).random_seed(r)

    faulty = fault_policy is not None and not fault_policy.is_null
    if faulty and fault_seed is None:
        fault_seed = r.getrandbits(64)

    def crawl_access(slot: str) -> GraphAccess:
        """A fresh access for one crawl; fault-injecting when the regime
        is imperfect (each slot gets its own dedicated fault stream)."""
        if not faulty:
            return GraphAccess(original)
        return FaultyAccess(
            original,
            fault_policy,
            fault_seed=spawn_fault_seed(fault_seed, _FAULT_SLOTS[slot]),
            budget=target,
        )

    walk: SamplingList | None = None
    if any(m in methods for m in ("rw", "gjoka", "proposed")):
        walk = random_walk(crawl_access("walk"), target, seed=seed, rng=r)

    outputs: dict[str, MethodOutput] = {}
    for method in methods:
        outputs[method] = _run_one(
            method, original, target, seed, walk, rc, r,
            max_rewiring_attempts, backend, crawl_access,
        )
    return outputs


def _run_one(
    method: str,
    original: MultiGraph,
    target: int,
    seed: Node,
    walk: SamplingList | None,
    rc: float,
    rng: random.Random,
    max_rewiring_attempts: int | None,
    backend: str,
    crawl_access,
) -> MethodOutput:
    if method in SUBGRAPH_METHODS:
        start = time.perf_counter()
        if method == "rw":
            assert walk is not None
            sample = walk
        elif method == "bfs":
            sample = bfs_crawl(crawl_access("bfs"), target, seed=seed, rng=rng)
        elif method == "snowball":
            sample = snowball_crawl(crawl_access("snowball"), target, seed=seed, rng=rng)
        else:  # ff
            sample = forest_fire_crawl(crawl_access("ff"), target, seed=seed, rng=rng)
        subgraph = build_subgraph(sample)
        elapsed = time.perf_counter() - start
        return MethodOutput(method, subgraph.graph, elapsed)

    assert walk is not None
    if method == "gjoka":
        result = gjoka_generate(
            walk,
            rc=rc,
            rng=rng,
            max_rewiring_attempts=max_rewiring_attempts,
            backend=backend,
        )
    else:  # proposed
        result = restore_from_walk(
            walk,
            rc=rc,
            rng=rng,
            max_rewiring_attempts=max_rewiring_attempts,
            backend=backend,
        )
    return MethodOutput(
        method, result.graph, result.total_seconds, result.rewiring_seconds
    )
