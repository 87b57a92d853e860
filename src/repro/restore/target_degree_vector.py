"""Target degree vector construction (Section IV-B; Algorithms 1 and 2).

Three steps produce ``{n*(k)}`` from the estimates and (optionally) the
sampled subgraph:

* **Initialization** — ``n*(k) = max(NearInt(n^ P^(k)), 1)`` for observed
  degrees (a positive estimate certifies at least one degree-``k`` node),
  0 otherwise; ``k*_max`` is the larger of the largest observed degree and
  the subgraph's maximum degree.
* **Adjustment** (Algorithm 1) — when the degree sum is odd, bump ``n*(k)``
  for the odd ``k`` whose relative-error increase ``Δ+(k)`` is smallest
  (ties to the smallest ``k``), restoring DV-2.
* **Modification** (Algorithm 2) — assign target degrees to the subgraph's
  nodes (queried nodes keep their exact degree per Lemma 1; visible nodes
  draw from the remaining capacity ``n*(k) - n'(k)`` at ``k >= d'_i``,
  largest-degree-first) and raise ``n*(k)`` wherever the census exceeds it,
  establishing DV-3.  May break parity, so Algorithm 1 runs once more.

The result carries both the vector and the per-node target degrees the
construction phase (Algorithm 5) needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import RealizabilityError
from repro.estimators.local import LocalEstimates
from repro.graph.multigraph import Node
from repro.sampling.subgraph import SampledSubgraph
from repro.utils.ints import near_int
from repro.utils.rng import ensure_rng


@dataclass
class DegreeVectorTargets:
    """Outcome of the first phase.

    Attributes
    ----------
    counts:
        The target degree vector ``{n*(k)}`` (sparse; absent = 0).
    k_max:
        The target maximum degree ``k*_max``.
    target_degrees:
        ``d*_i`` for every subgraph node (empty without a subgraph).
    """

    counts: dict[int, int]
    k_max: int
    target_degrees: dict[Node, int] = field(default_factory=dict)

    def degree_sum(self) -> int:
        """``sum_k k n*(k)`` (even once DV-2 holds)."""
        return sum(k * c for k, c in self.counts.items())

    def total_nodes(self) -> int:
        """``sum_k n*(k)``."""
        return sum(self.counts.values())

    def census(self) -> dict[int, int]:
        """``{n'(k)}``: subgraph nodes per assigned target degree."""
        out: dict[int, int] = {}
        for k in self.target_degrees.values():
            out[k] = out.get(k, 0) + 1
        return out


def build_target_degree_vector(
    estimates: LocalEstimates,
    subgraph: SampledSubgraph | None = None,
    rng: random.Random | int | None = None,
) -> DegreeVectorTargets:
    """Run the full first phase (init + adjust [+ modify + re-adjust])."""
    r = ensure_rng(rng)
    k_max = estimates.max_observed_degree()
    if subgraph is not None:
        k_max = max(k_max, subgraph.graph.max_degree())
    if k_max < 1:
        raise RealizabilityError("no positive degree observed; cannot build targets")

    counts = _initialize(estimates, k_max)
    targets = DegreeVectorTargets(counts=counts, k_max=k_max)
    adjust_parity(targets, estimates)
    if subgraph is not None:
        _modify_for_subgraph(targets, estimates, subgraph, r)
        adjust_parity(targets, estimates)
    return targets


def _initialize(estimates: LocalEstimates, k_max: int) -> dict[int, int]:
    """Initialization step: nearest-integer estimates, floored at 1 for
    observed degrees (DV-1 holds by construction)."""
    counts: dict[int, int] = {}
    for k in range(1, k_max + 1):
        p = estimates.p_degree(k)
        if p > 0.0:
            counts[k] = max(near_int(estimates.n_of_degree(k)), 1)
    return counts


def delta_plus(estimates: LocalEstimates, counts: dict[int, int], k: int) -> float:
    """``Δ+(k)``: relative-error increase of bumping ``n*(k)`` by one.

    Infinite for degrees with no positive estimate (bumping them has no
    error budget to compare against).
    """
    if estimates.p_degree(k) <= 0.0:
        return math.inf
    n_hat_k = estimates.n_of_degree(k)
    current = counts.get(k, 0)
    return (abs(n_hat_k - (current + 1)) - abs(n_hat_k - current)) / n_hat_k


def adjust_parity(targets: DegreeVectorTargets, estimates: LocalEstimates) -> None:
    """Algorithm 1: restore DV-2 by bumping the cheapest odd degree."""
    if targets.degree_sum() % 2 == 0:
        return
    best_k = None
    best_cost = math.inf
    for k in range(1, targets.k_max + 1, 2):  # odd degrees only
        cost = delta_plus(estimates, targets.counts, k)
        if cost < best_cost:
            best_cost = cost
            best_k = k
    if best_k is None:
        # every odd degree has an infinite Δ+ (no positive estimates);
        # fall back to the smallest odd degree, matching the tie rule's
        # preference for adding as few edge endpoints as possible
        best_k = 1
    targets.counts[best_k] = targets.counts.get(best_k, 0) + 1


def _modify_for_subgraph(
    targets: DegreeVectorTargets,
    estimates: LocalEstimates,
    subgraph: SampledSubgraph,
    rng: random.Random,
) -> None:
    """Algorithm 2: assign ``d*_i`` to subgraph nodes and establish DV-3.

    Each visible node draws uniformly from the multiset ``D_seq`` in which
    each feasible degree ``k in [d'_i, k*_max]`` appears ``n*(k) - n'(k)``
    times.  The slack ``n*(k) - n'(k)`` lives in a :class:`_SlackTree`, so
    a draw is one prefix query, one ``rng.randrange`` over the feasible
    total and one descent to the smallest degree whose running slack
    exceeds the pick.  When the multiset is empty, the node takes the
    feasible degree with the smallest ``Δ+`` (ties to the smallest degree).
    """
    graph = subgraph.graph
    counts = targets.counts
    assigned = targets.target_degrees

    # queried nodes: exact degree (Lemma 1)
    census: dict[int, int] = {}
    for node in subgraph.queried:
        k = graph.degree(node)
        assigned[node] = k
        census[k] = census.get(k, 0) + 1
    for k, have in census.items():
        if counts.get(k, 0) < have:
            counts[k] = have

    # never negative: n*(k) was just raised to every census count above it
    slack = _SlackTree(
        [counts.get(k, 0) - census.get(k, 0) for k in range(1, targets.k_max + 1)]
    )
    # visible nodes: decreasing subgraph degree (ties by id, deterministic)
    visible = sorted(
        subgraph.visible, key=lambda v: (-graph.degree(v), _sort_key(v))
    )
    for node in visible:
        d_floor = graph.degree(node)
        below = slack.prefix(d_floor - 1)
        total = slack.total - below
        if total > 0:
            k = slack.search(below + rng.randrange(total))
            slack.take(k)
        else:  # k has no slack, and n*(k) follows the census up below
            k = _cheapest_degree(estimates, counts, d_floor, targets.k_max)
        assigned[node] = k
        census[k] = census.get(k, 0) + 1
        if counts.get(k, 0) < census[k]:
            counts[k] = census[k]


class _SlackTree:
    """Fenwick tree over the slack ``n*(k) - n'(k)`` of degrees ``1..k_max``.

    Built from ``slack[k - 1]`` per degree ``k``.  Every slack must be
    non-negative, so prefix sums ascend with ``k`` and :meth:`search` can
    descend them.
    """

    def __init__(self, slack: list[int]) -> None:
        tree = [0, *slack]
        size = len(slack)
        for i in range(1, size + 1):
            parent = i + (i & -i)
            if parent <= size:
                tree[parent] += tree[i]
        self.tree = tree
        self.size = size
        self.total = sum(slack)

    def prefix(self, k: int) -> int:
        """Slack summed over degrees ``1..k``."""
        tree = self.tree
        out = 0
        while k > 0:
            out += tree[k]
            k &= k - 1
        return out

    def search(self, pick: int) -> int:
        """Smallest degree whose prefix slack exceeds ``pick``."""
        tree = self.tree
        pos = 0
        step = 1 << self.size.bit_length()
        while step:
            nxt = pos + step
            if nxt <= self.size and tree[nxt] <= pick:
                pos = nxt
                pick -= tree[nxt]
            step >>= 1
        return pos + 1

    def take(self, k: int) -> None:
        """Remove one unit of slack at degree ``k``."""
        tree = self.tree
        while k <= self.size:
            tree[k] -= 1
            k += k & -k
        self.total -= 1


def _cheapest_degree(
    estimates: LocalEstimates, counts: dict[int, int], d_floor: int, k_max: int
) -> int:
    """Feasible degree in ``[d_floor, k_max]`` with the smallest ``Δ+``."""
    best_k = d_floor
    best_cost = math.inf
    for k in range(d_floor, k_max + 1):
        cost = delta_plus(estimates, counts, k)
        if cost < best_cost:
            best_cost = cost
            best_k = k
    return best_k


def _sort_key(node: Node):
    return (0, node) if isinstance(node, int) else (1, repr(node))
