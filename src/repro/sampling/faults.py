"""Deterministic fault injection for crawls: the imperfect-crawler regime.

The paper's access model (Section III-A) assumes an ideal crawler: every
neighbor query succeeds, returns the complete incident edge list, and
costs exactly one API call.  Real crawls of social-network APIs see none
of that — requests fail transiently and are retried, rate limits make
call cost vary, neighbor responses are truncated at a page size, and
accounts churn away mid-crawl.  This module makes that regime a
first-class, *deterministic* sweep axis:

* :class:`FaultPolicy` — a frozen description of the regime (transient
  failure rate with bounded retry/backoff, rate-limit window, neighbor
  truncation cap, node-churn probability),
* :class:`FaultyAccess` — a :class:`~repro.sampling.access.GraphAccess`
  that injects the policy's faults into every query while keeping the
  full access-model surface.  Like the ideal access it wraps a
  :class:`~repro.graph.multigraph.MultiGraph` or a frozen
  :class:`~repro.engine.csr.CSRGraph` (a shared-memory snapshot
  included), so pooled workers crawl under faults unchanged.

Determinism contract
--------------------
Every fault decision is drawn from a dedicated :class:`random.Random`
seeded by ``fault_seed`` — a :class:`numpy.random.SeedSequence` child of
the pre-spawned run seed under a fixed namespace
(:func:`spawn_fault_seed`), never from the crawler's own generator.  Two
consequences the tests pin down:

* a **null policy is a bit-identical passthrough**: no fault randomness
  is ever drawn, so crawls over a zero-fault :class:`FaultyAccess` equal
  crawls over a plain :class:`GraphAccess` trace for trace, and
* a crawl is a **pure function of** ``(seed, policy)``: the fault stream
  rides the same pre-spawned seed tree as everything else, so ``jobs=N``
  sweeps stay byte-identical to serial and results reproduce across
  processes and platforms.

Budget semantics under faults
-----------------------------
An ideal access charges the budget one unit per *distinct queried node*.
A faulty access charges per **API call**: failed attempts, the wasted
call a rate-limit window eats, and churn discoveries all consume budget
without yielding a node.  With a null policy the two accountings
coincide (one successful call per distinct node), preserving the
passthrough guarantee.  Exhaustion raises
:class:`~repro.errors.BudgetExhaustedError` — possibly mid-retry — which
fault-tolerant crawlers treat as "stop and keep what you have".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    BudgetExhaustedError,
    NodeChurnedError,
    QueryFailedError,
    SamplingError,
)
from repro.graph.multigraph import MultiGraph, Node
from repro.sampling.access import GraphAccess

_U64 = 0xFFFFFFFFFFFFFFFF

#: Fixed namespace separating fault entropy from the run/cell seed tree:
#: ``spawn_fault_seed(s)`` can never collide with ``spawn_seeds(s, n)``
#: children because no other spawn path uses this tag.
_FAULT_NAMESPACE = 0xFA017


def spawn_fault_seed(base: int, *path: int) -> int:
    """A dedicated fault-stream child seed of ``base`` at ``path``.

    Uses :class:`numpy.random.SeedSequence` under the module's fixed
    namespace, so the fault stream is (a) independent of the crawler's
    own generator and of every other seed spawned from ``base``, and
    (b) stable across platforms and processes — the property the
    ``jobs=N`` byte-identity contract extends to fault sweeps.
    """
    # path arity is part of the entropy: SeedSequence zero-pads, so a
    # trailing 0 coordinate would otherwise alias the parent stream
    entropy = [base & _U64, _FAULT_NAMESPACE, len(path), *(p & _U64 for p in path)]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class FaultPolicy:
    """Frozen description of one imperfect-crawler regime.

    Parameters
    ----------
    failure_rate:
        Probability in ``[0, 1)`` that one query *attempt* fails
        transiently.  Each failed attempt is charged one API call and
        retried up to ``max_retries`` times; when all attempts fail the
        query raises :class:`~repro.errors.QueryFailedError`.
    max_retries:
        Bounded retry count per query (0 = fail on first transient).
    backoff_base:
        Simulated seconds waited before retry ``k`` (``backoff_base *
        2**k``).  Accounting only — nothing sleeps — surfaced through
        :attr:`FaultyAccess.fault_stats` so experiments can report
        simulated wall-clock cost; it never affects the crawl itself.
    rate_limit:
        Window size of the simulated rate limiter: every
        ``rate_limit``-th charged call hits the limit and one extra
        (wasted) call is charged for the re-issue after the window
        resets, so query cost varies between 1 and 2 calls.  0 disables.
    truncate_at:
        Neighbor-list page cap: queries return only the first
        ``truncate_at`` incident-edge endpoints (and ``degree`` reports
        the truncated length — the crawler can't see past the page).
        0 disables.
    churn:
        Probability in ``[0, 1]`` that a node has churned away by the
        time it is first queried; a churned node raises
        :class:`~repro.errors.NodeChurnedError` on that query (one call
        charged for the discovery) and on every repeat query (free).
    """

    failure_rate: float = 0.0
    max_retries: int = 2
    backoff_base: float = 0.0
    rate_limit: int = 0
    truncate_at: int = 0
    churn: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise SamplingError(
                f"failure_rate must be in [0, 1), got {self.failure_rate}"
            )
        if self.max_retries < 0:
            raise SamplingError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0.0:
            raise SamplingError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.rate_limit < 0:
            raise SamplingError(f"rate_limit must be >= 0, got {self.rate_limit}")
        if self.truncate_at < 0:
            raise SamplingError(f"truncate_at must be >= 0, got {self.truncate_at}")
        if not 0.0 <= self.churn <= 1.0:
            raise SamplingError(f"churn must be in [0, 1], got {self.churn}")

    @property
    def is_null(self) -> bool:
        """True when the policy injects nothing (ideal crawling).

        A null policy is the documented bit-identical passthrough: the
        wrapper draws no fault randomness and delegates straight to the
        ideal query path.
        """
        return (
            self.failure_rate == 0.0
            and self.rate_limit == 0
            and self.truncate_at == 0
            and self.churn == 0.0
        )

    def label(self) -> str:
        """Compact stable label for CSV keys and report rows.

        Only the active knobs appear, so ``FaultPolicy()`` is ``"ideal"``
        and e.g. ``FaultPolicy(failure_rate=0.1, rate_limit=50)`` is
        ``"f0.1+rl50"``.
        """
        parts: list[str] = []
        if self.failure_rate:
            parts.append(f"f{self.failure_rate:g}")
        if self.rate_limit:
            parts.append(f"rl{self.rate_limit:d}")
        if self.truncate_at:
            parts.append(f"t{self.truncate_at:d}")
        if self.churn:
            parts.append(f"c{self.churn:g}")
        return "+".join(parts) if parts else "ideal"


def policy_from_knobs(
    fault_rate: float = 0.0,
    rate_limit: int = 0,
    truncate_at: int = 0,
    churn: float = 0.0,
) -> FaultPolicy | None:
    """The policy the four user-facing knobs describe, or ``None``.

    This is the single translation point for the CLI flags
    (``--fault-rate/--rate-limit/--truncate-at/--churn``) and the service
    parameters of the same names: all-zero means ideal crawling and maps
    to ``None`` (not a null policy object), so untouched invocations
    carry no fault plumbing at all.
    """
    if not (fault_rate or rate_limit or truncate_at or churn):
        return None
    return FaultPolicy(
        failure_rate=fault_rate,
        rate_limit=rate_limit,
        truncate_at=truncate_at,
        churn=churn,
    )


class FaultyAccess(GraphAccess):
    """A :class:`GraphAccess` that injects a :class:`FaultPolicy`.

    Implements the full access-model surface — memoized ``query`` /
    ``degree`` / ``random_seed`` plus all accounting properties — over
    the same hidden graph types the base class accepts (a
    :class:`~repro.graph.multigraph.MultiGraph` or any object with its
    neighbor-query surface, e.g. a frozen
    :class:`~repro.engine.csr.CSRGraph` snapshot).

    Parameters
    ----------
    graph:
        The hidden graph.
    policy:
        The fault regime to inject.
    fault_seed:
        Seed of the dedicated fault stream (see module docstring); use
        :func:`spawn_fault_seed` to derive it from a run seed.
    budget:
        API-*call* budget (see module docstring).  ``None`` = unlimited.
    """

    def __init__(
        self,
        graph: MultiGraph,
        policy: FaultPolicy,
        fault_seed: int = 0,
        budget: int | None = None,
    ) -> None:
        super().__init__(graph, budget)
        self._policy = policy
        self._fault_rng = random.Random(fault_seed)
        self._calls = 0
        self._dead: set[Node] = set()
        self._stats = {
            "calls": 0,
            "retries": 0,
            "rate_limit_hits": 0,
            "churned": 0,
            "truncated": 0,
            "simulated_wait_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # fault surface
    # ------------------------------------------------------------------
    @property
    def fault_policy(self) -> FaultPolicy:
        """The injected policy (crawlers read this to pick lenient mode)."""
        return self._policy

    @property
    def calls(self) -> int:
        """Charged API calls so far (equals ``num_queried`` when null)."""
        return self._calls

    @property
    def fault_stats(self) -> dict:
        """Counters of injected fault activity (copy; safe to mutate)."""
        return dict(self._stats, calls=self._calls)

    # ------------------------------------------------------------------
    # the fault-injected query path
    # ------------------------------------------------------------------
    def query(self, node: Node) -> list[Node]:
        """Query ``node`` under the fault regime.

        Memoized repeats stay free (both successful responses and churn
        discoveries).  A null policy takes the ideal path untouched —
        same branches, same results, zero fault draws.
        """
        policy = self._policy
        if policy.is_null:
            nbrs = super().query(node)
            self._calls = len(self._queried)
            return nbrs
        if node in self._queried:
            return self._queried[node]
        if node in self._dead:
            raise NodeChurnedError(f"node {node!r} has churned away")
        if not self._graph.has_node(node):
            raise SamplingError(f"queried node {node!r} does not exist")
        # churn is decided once, on the first real query of the node; the
        # discovery costs one charged call like any other API response
        if policy.churn and self._fault_rng.random() < policy.churn:
            self._charge()
            self._dead.add(node)
            self._stats["churned"] += 1
            raise NodeChurnedError(f"node {node!r} has churned away")
        for attempt in range(policy.max_retries + 1):
            self._charge()
            if policy.failure_rate and self._fault_rng.random() < policy.failure_rate:
                self._stats["retries"] += 1
                self._stats["simulated_wait_seconds"] += (
                    policy.backoff_base * 2**attempt
                )
                continue
            nbrs = self._graph.incident_edge_endpoints(node)
            if policy.truncate_at and len(nbrs) > policy.truncate_at:
                nbrs = nbrs[: policy.truncate_at]
                self._stats["truncated"] += 1
            self._queried[node] = nbrs
            return nbrs
        raise QueryFailedError(
            f"query of {node!r} failed {policy.max_retries + 1} times "
            f"(transient failure rate {policy.failure_rate:g})"
        )

    def _charge(self) -> None:
        """Charge one API call (plus the rate-limit surcharge when the
        call lands on the window boundary); raise when the budget is
        spent *before* issuing, so exhaustion can fire mid-retry."""
        if self._budget is not None and self._calls >= self._budget:
            raise BudgetExhaustedError(
                f"API-call budget of {self._budget} exhausted "
                f"({self.num_queried} nodes crawled)"
            )
        self._calls += 1
        limit = self._policy.rate_limit
        if limit and self._calls % limit == 0:
            self._stats["rate_limit_hits"] += 1
            if self._budget is not None and self._calls >= self._budget:
                raise BudgetExhaustedError(
                    f"API-call budget of {self._budget} exhausted at a "
                    f"rate-limit window ({self.num_queried} nodes crawled)"
                )
            self._calls += 1

    # ------------------------------------------------------------------
    # accounting under the call-based budget
    # ------------------------------------------------------------------
    def remaining(self) -> int | None:
        """Charged calls remaining under the budget (None = unlimited)."""
        if self._budget is None:
            return None
        return self._budget - self._calls

    def budget_exhausted(self) -> bool:
        """True when no further calls may be charged."""
        return self._budget is not None and self._calls >= self._budget


def make_faulty_access(
    graph,
    policy: FaultPolicy,
    fault_seed: int = 0,
    budget: int | None = None,
) -> FaultyAccess:
    """The faulty access the experiment harness crawls through.

    A :class:`FaultyAccess`, whatever ``graph`` is — a
    :class:`~repro.graph.multigraph.MultiGraph` or a frozen
    :class:`~repro.engine.csr.CSRGraph` snapshot (including a
    shared-memory attach), both of which serve the neighbor-query
    surface identically.  This mirrors the ideal harness,
    which wraps whichever graph object it holds in a plain
    :class:`~repro.sampling.access.GraphAccess`: a serial cell (crawling
    the MultiGraph) and a pooled worker (crawling the shared CSR
    snapshot) must draw identical ``random_seed`` re-seeds, which the
    class — not just the data — determines.
    """
    return FaultyAccess(graph, policy, fault_seed=fault_seed, budget=budget)
