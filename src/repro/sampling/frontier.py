"""Frontier sampling (multidimensional random walk, Ribeiro & Towsley).

The paper's Related Work cites frontier sampling [13] as an improved walk
that tolerates disconnected components: ``m`` coupled walkers hold a
frontier of positions; at each step one walker is chosen with probability
proportional to its current node's degree and moved across a uniform
incident edge.  In the limit the *edge* sequence is stationary-uniform
exactly like the simple walk's, so the re-weighted estimators apply to the
recorded node sequence unchanged, while the multiple dimensions decorrelate
samples faster and cover disconnected graphs (each component retains at
least the walkers seeded in it).
"""

from __future__ import annotations

import random

from repro.errors import BudgetExhaustedError, CrawlFaultError, SamplingError
from repro.graph.multigraph import Node
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import SamplingList, teleport
from repro.utils.rng import ensure_rng

DEFAULT_DIMENSION = 8  # walker count used by Ribeiro & Towsley's evaluation


def frontier_sampling(
    access: GraphAccess,
    target_queried: int,
    dimension: int = DEFAULT_DIMENSION,
    seeds: list[Node] | None = None,
    rng: random.Random | int | None = None,
    max_steps: int | None = None,
) -> SamplingList:
    """Frontier-sample until ``target_queried`` distinct nodes are queried.

    Parameters
    ----------
    access:
        Neighbor-query facade over the hidden graph.
    target_queried:
        Distinct-node budget at which sampling stops.
    dimension:
        Number of coupled walkers ``m`` (1 recovers the simple walk up to
        bookkeeping).
    seeds:
        Optional explicit walker seeds (padded with uniform draws when
        shorter than ``dimension``).
    rng, max_steps:
        As in :func:`repro.sampling.walkers.random_walk`.

    Returns the usual :class:`SamplingList` of moved-walker positions, in
    move order — the format every estimator consumes.

    Under an imperfect-crawler regime it degrades as
    :func:`~repro.sampling.walkers.random_walk` does: a faulted query of a
    walker's seed or of the node a moved walker steps onto teleports that
    walker (see :func:`~repro.sampling.walkers.teleport`) — a teleport
    after a move is recorded as that walker's move — and budget exhaustion
    returns the partial walk.
    """
    if dimension < 1:
        raise SamplingError(f"dimension must be >= 1, got {dimension}")
    r = ensure_rng(rng)
    cap = max_steps if max_steps is not None else 1000 * max(target_queried, 1)
    policy = access.fault_policy
    lenient = policy is not None and not policy.is_null

    frontier: list[Node] = list(seeds or [])
    while len(frontier) < dimension:
        frontier.append(access.random_seed(r))
    frontier = frontier[:dimension]

    walk = SamplingList()
    degrees: list[int] = []
    faulted = 0
    for idx in range(dimension):
        while True:
            try:
                nbrs = access.query(frontier[idx])
                break
            except CrawlFaultError:
                # while the trace is empty a teleport draws a fresh seed,
                # which can fault again; cap bounds a regime that has
                # killed every seed it draws
                faulted += 1
                if faulted > cap:
                    raise SamplingError(
                        f"frontier sampling found no live seed in {cap} queries"
                    ) from None
                frontier[idx] = teleport(walk, access, r)
            except BudgetExhaustedError:
                if lenient and walk.nodes:
                    return walk
                raise
        if not nbrs:
            raise SamplingError(f"frontier seed {frontier[idx]!r} has no edges")
        walk.record(frontier[idx], nbrs)
        degrees.append(len(nbrs))
    if access.num_queried >= target_queried:
        return walk

    for _ in range(cap):
        # choose the walker to move, degree-proportionally
        total = sum(degrees)
        pick = r.randrange(total)
        idx = 0
        while pick >= degrees[idx]:
            pick -= degrees[idx]
            idx += 1
        current = frontier[idx]
        nxt = r.choice(walk.neighbors[current])
        try:
            nbrs = access.query(nxt)
        except CrawlFaultError:
            nxt = teleport(walk, access, r)
            nbrs = walk.neighbors[nxt]
        except BudgetExhaustedError:
            if lenient:
                return walk
            raise
        if not nbrs:
            raise SamplingError(f"walker stuck: node {nxt!r} has no edges")
        walk.record(nxt, nbrs)
        frontier[idx] = nxt
        degrees[idx] = len(nbrs)
        if access.num_queried >= target_queried:
            return walk
    if lenient:
        return walk
    raise SamplingError(
        f"frontier sampling did not reach {target_queried} distinct nodes "
        f"within {cap} steps"
    )
