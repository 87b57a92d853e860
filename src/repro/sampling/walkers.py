"""Random-walk samplers producing the paper's sampling list ``L``.

A walk of length ``r`` yields ``L = ((x_i, N(x_i)))_{i=1..r}``: the ordered
sequence of visited nodes (with repeats — the Markov chain revisits) plus
each visited node's incident edge list.  The re-weighted estimators consume
this object directly.

Besides the simple random walk the paper builds on, two of the "improved
walks" its Related Work section points at are provided (non-backtracking
and Metropolis–Hastings), so the restoration pipeline can be driven by any
of the three.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import BudgetExhaustedError, CrawlFaultError, SamplingError
from repro.graph.multigraph import Node
from repro.sampling.access import GraphAccess
from repro.utils.rng import ensure_rng


@dataclass
class SamplingList:
    """Ordered record of a walk: nodes visited and their adjacency lists.

    Attributes
    ----------
    nodes:
        ``x_1 .. x_r`` in visit order, repeats included.
    neighbors:
        ``node -> N(node)`` for every distinct visited node; each entry of
        ``N(node)`` is the other endpoint of one incident edge (a neighbor
        adjacent through two parallel edges appears twice).
    """

    nodes: list[Node] = field(default_factory=list)
    neighbors: dict[Node, list[Node]] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Walk length ``r`` (number of samples, repeats included)."""
        return len(self.nodes)

    @property
    def distinct_nodes(self) -> set[Node]:
        """Set of distinct visited (= queried) nodes."""
        return set(self.neighbors)

    def degree(self, node: Node) -> int:
        """Degree of a visited node (length of its recorded edge list)."""
        try:
            return len(self.neighbors[node])
        except KeyError:
            raise SamplingError(f"{node!r} was not visited by this walk") from None

    def degree_sequence(self) -> list[int]:
        """``d(x_1) .. d(x_r)`` aligned with :attr:`nodes`."""
        return [len(self.neighbors[x]) for x in self.nodes]

    def record(self, node: Node, nbrs: list[Node]) -> None:
        """Append a visit of ``node`` whose adjacency is ``nbrs``."""
        self.nodes.append(node)
        if node not in self.neighbors:
            self.neighbors[node] = nbrs


def random_walk(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    rng: random.Random | int | None = None,
    max_steps: int | None = None,
) -> SamplingList:
    """Simple random walk until ``target_queried`` distinct nodes are queried.

    At each step an incident edge of the current node is chosen uniformly at
    random and traversed (Section III-B).  The walk length ``r`` therefore
    exceeds ``target_queried`` in general — the stopping rule matches the
    paper's experimental design ("continue each sampling procedure until the
    percentage of queried nodes reaches a given value").

    Parameters
    ----------
    access:
        Neighbor-query facade over the hidden graph.
    target_queried:
        Distinct-node budget at which the walk stops.
    seed:
        Starting node; drawn uniformly at random when ``None``.
    rng:
        Seedable randomness (see :func:`repro.utils.ensure_rng`).
    max_steps:
        Safety valve for poorly connected graphs; default ``1000 x target``.

    Under an imperfect-crawler regime (an access with a non-null
    :class:`~repro.sampling.faults.FaultPolicy`) the walk degrades
    gracefully instead of raising: a step onto a faulted node (churned,
    or transient retries exhausted) teleports the walker back to a
    uniformly random position of its own trace — or to a fresh uniform
    seed while the trace is still empty, which is how a walk whose seed
    node immediately churns re-seeds deterministically — and budget
    exhaustion (which under faults counts charged API calls) returns the
    partial walk.  All recovery draws come from the walk's own
    generator, so a faulty walk is a pure function of ``(seed, policy)``.
    """
    return _walk(
        access, target_queried, seed, rng, max_steps, _simple_step, "random walk"
    )


def non_backtracking_random_walk(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    rng: random.Random | int | None = None,
    max_steps: int | None = None,
) -> SamplingList:
    """Non-backtracking random walk (Lee et al.): never immediately re-cross
    the edge just traversed, unless the current node has degree 1.

    Improves query efficiency over the simple walk while keeping the sample
    sequence Markovian on directed edges; the estimators remain applicable
    in practice (the paper cites this as a combinable improvement).  Under
    an imperfect-crawler regime it degrades exactly as :func:`random_walk`
    does; a teleport traverses no edge, so the step after it may go back.
    """
    return _walk(
        access, target_queried, seed, rng, max_steps, _non_backtracking_step,
        "non-backtracking walk",
    )


def _simple_step(nbrs: list[Node], previous: Node | None, r: random.Random) -> Node:
    return r.choice(nbrs)


def _non_backtracking_step(
    nbrs: list[Node], previous: Node | None, r: random.Random
) -> Node:
    if previous is not None and len(nbrs) > 1:
        choices = [v for v in nbrs if v != previous]
        if not choices:  # all parallel edges lead back; must backtrack
            choices = nbrs
        return r.choice(choices)
    return r.choice(nbrs)


def _walk(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None,
    rng: random.Random | int | None,
    max_steps: int | None,
    step: Callable[[list[Node], Node | None, random.Random], Node],
    label: str,
) -> SamplingList:
    """The one loop behind both edge-walks; ``step(nbrs, previous, r)``
    picks the next node from the current node's edge list, given the
    node the walker arrived from (``None`` after a seed or teleport)."""
    r = ensure_rng(rng)
    cap = max_steps if max_steps is not None else 1000 * max(target_queried, 1)
    current = seed if seed is not None else access.random_seed(r)
    previous: Node | None = None
    policy = access.fault_policy
    lenient = policy is not None and not policy.is_null
    walk = SamplingList()
    for _ in range(cap):
        try:
            nbrs = access.query(current)
        except CrawlFaultError:
            current = teleport(walk, access, r)
            previous = None
            continue
        except BudgetExhaustedError:
            if lenient and walk.nodes:
                return walk
            raise
        if not nbrs:
            raise SamplingError(f"walk stuck: node {current!r} has no edges")
        walk.record(current, nbrs)
        if access.num_queried >= target_queried:
            return walk
        previous, current = current, step(nbrs, previous, r)
    if lenient and walk.nodes:
        return walk
    raise SamplingError(
        f"{label} did not reach {target_queried} distinct nodes "
        f"within {cap} steps (graph too small or disconnected?)"
    )


def teleport(walk: SamplingList, access: GraphAccess, r: random.Random) -> Node:
    """Where a walker goes after a faulted query: a uniformly random
    position of the walk's trace, or a fresh uniform seed while the trace
    is still empty.  Both draws come from the walk's own generator."""
    return r.choice(walk.nodes) if walk.nodes else access.random_seed(r)


def metropolis_hastings_random_walk(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    rng: random.Random | int | None = None,
    max_steps: int | None = None,
) -> SamplingList:
    """Metropolis–Hastings random walk targeting the uniform distribution.

    Proposes a uniform incident edge and accepts with ``min(1, d_u / d_v)``;
    rejections re-sample the current node.  Produces uniform node samples
    without re-weighting (useful as a cross-check of the re-weighted
    estimators in tests and examples).  Under an imperfect-crawler regime
    it degrades exactly as :func:`random_walk` does: a faulted query — of
    the current node or of the proposal — teleports the walker (see
    :func:`teleport`), and budget exhaustion returns the partial walk.
    """
    r = ensure_rng(rng)
    cap = max_steps if max_steps is not None else 5000 * max(target_queried, 1)
    current = seed if seed is not None else access.random_seed(r)
    policy = access.fault_policy
    lenient = policy is not None and not policy.is_null
    walk = SamplingList()
    for _ in range(cap):
        try:
            nbrs = access.query(current)
        except CrawlFaultError:
            current = teleport(walk, access, r)
            continue
        except BudgetExhaustedError:
            if lenient and walk.nodes:
                return walk
            raise
        if not nbrs:
            raise SamplingError(f"walk stuck: node {current!r} has no edges")
        walk.record(current, nbrs)
        if access.num_queried >= target_queried:
            return walk
        proposal = r.choice(nbrs)
        d_u = len(nbrs)
        try:
            d_v = len(access.query(proposal))
        except CrawlFaultError:
            current = teleport(walk, access, r)
            continue
        except BudgetExhaustedError:
            if lenient:
                return walk
            raise
        if access.num_queried >= target_queried:
            walk.record(proposal, access.query(proposal))
            return walk
        if d_v <= d_u or r.random() < d_u / d_v:
            current = proposal
        # else: stay at current (it will be re-recorded next iteration)
    if lenient and walk.nodes:
        return walk
    raise SamplingError(
        f"MH walk did not reach {target_queried} distinct nodes within {cap} steps"
    )
