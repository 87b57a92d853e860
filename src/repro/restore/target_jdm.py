"""Target joint degree matrix construction (Section IV-C; Algorithms 3, 4).

Produces ``{m*(k,k')}`` satisfying JDM-1..3 (and JDM-4 under a subgraph)
while staying close to the raw estimates
``m^(k,k') = n^ k̄^ P^(k,k') / mu(k,k')``:

* **Initialization** — nearest-integer estimates, floored at 1 for observed
  pairs (a positive ``P^(k,k')`` certifies at least one such edge);
  symmetric by construction.
* **Adjustment** (Algorithm 3) — per degree class ``k`` in decreasing
  order, raise/lower cells until the class degree mass
  ``s(k) = sum_k' mu m*(k,k')`` equals ``s*(k) = k n*(k)``, under three
  constraints: never cross the per-cell lower limits, keep the matrix
  symmetric, and only touch classes that still await adjustment (the
  initially-unbalanced set, plus class 1 which serves as the fine
  adjustment sink).  When a class cannot shed mass, its ``n*(k)`` grows
  instead (shifting to raise mode); class 1 maintains even parity of its
  deficit since only the diagonal cell ``m*(1,1)`` is available to it.
* **Modification** (Algorithm 4) — raise every cell below the subgraph
  census ``m'(k,k')`` and compensate by lowering sibling cells with slack,
  transferring the lowered mass to the ``(k3, k4)`` cell when both
  compensations succeed; then re-run Algorithm 3 with ``m_min = m'`` to
  repair any residual JDM-3 violations without ever dipping below the
  census.

Both algorithms mutate the degree-vector targets (``n*``) when required,
exactly as the paper allows; the caller receives the final, mutually
consistent pair.
"""

from __future__ import annotations

import math
import random

from repro.errors import RealizabilityError
from repro.estimators.local import LocalEstimates, mu
from repro.graph.multigraph import MultiGraph
from repro.restore.target_degree_vector import DegreeVectorTargets
from repro.sampling.subgraph import SampledSubgraph
from repro.utils.ints import near_int
from repro.utils.rng import ensure_rng

DegreePair = tuple[int, int]

# Hard cap on inner adjustment steps; generously above anything a real run
# needs, purely to convert a logic bug into a loud error instead of a hang.
_MAX_ADJUST_STEPS = 50_000_000


def build_target_jdm(
    estimates: LocalEstimates,
    dv_targets: DegreeVectorTargets,
    subgraph: SampledSubgraph | None = None,
    rng: random.Random | int | None = None,
) -> dict[DegreePair, int]:
    """Run the full second phase; mutates ``dv_targets`` when needed.

    Returns the symmetric sparse target JDM.  With a subgraph, JDM-4 holds
    against the census of ``subgraph`` under ``dv_targets.target_degrees``.
    """
    r = ensure_rng(rng)
    jdm = _initialize(estimates, dv_targets.k_max)
    m_hat = _raw_targets(estimates)
    zeros: dict[DegreePair, int] = {}
    _adjust(jdm, m_hat, dv_targets, lower_limits=zeros, rng=r)
    if subgraph is not None:
        census = _subgraph_pair_census(subgraph.graph, dv_targets.target_degrees)
        _modify_for_subgraph(jdm, m_hat, dv_targets, census, r)
        _adjust(jdm, m_hat, dv_targets, lower_limits=census, rng=r)
    return jdm


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------
def _initialize(estimates: LocalEstimates, k_max: int) -> dict[DegreePair, int]:
    jdm: dict[DegreePair, int] = {}
    for (k, kp), p in estimates.joint_degree_distribution.items():
        if p <= 0.0 or k > k_max or kp > k_max:
            continue
        value = max(near_int(estimates.m_of_pair(k, kp)), 1)
        jdm[(k, kp)] = value
        jdm[(kp, k)] = value
    return jdm


def _raw_targets(estimates: LocalEstimates) -> dict[int, dict[int, float]]:
    """``m^(k,k')`` by row ``k``, for every pair that may be adjusted.

    A pair without a positive ``P^(k,k')`` or ``m^(k,k')`` is left out:
    changing its cell has an infinite error delta.
    """
    m_hat: dict[int, dict[int, float]] = {}
    for (k, kp), p in estimates.joint_degree_distribution.items():
        if p <= 0.0:
            continue
        m = estimates.m_of_pair(k, kp)
        if m <= 0.0:
            continue
        m_hat.setdefault(k, {})[kp] = m
    return m_hat


def _subgraph_pair_census(
    graph: MultiGraph, target_degrees: dict
) -> dict[DegreePair, int]:
    """``m'(k,k')`` under the assigned target degrees, stored symmetrically."""
    census: dict[DegreePair, int] = {}
    for u, v in graph.edges():
        k, kp = target_degrees[u], target_degrees[v]
        if k == kp:
            census[(k, k)] = census.get((k, k), 0) + 1
        else:
            census[(k, kp)] = census.get((k, kp), 0) + 1
            census[(kp, k)] = census.get((kp, k), 0) + 1
    return census


# ----------------------------------------------------------------------
# Algorithm 3: adjustment toward JDM-3
# ----------------------------------------------------------------------
class _Adjuster:
    """Mutable state shared across one Algorithm-3 run."""

    def __init__(
        self,
        jdm: dict[DegreePair, int],
        m_hat: dict[int, dict[int, float]],
        dv_targets: DegreeVectorTargets,
        lower_limits: dict[DegreePair, int],
        rng: random.Random,
    ) -> None:
        self.jdm = jdm
        self.m_hat = m_hat
        self.dv = dv_targets
        self.rng = rng
        self.sums: dict[int, int] = {}
        # row indexes: the nonzero cells of the JDM and the lower limits
        self.rows: dict[int, dict[int, int]] = {}
        for (a, b), v in jdm.items():
            self.sums[a] = self.sums.get(a, 0) + mu(a, b) * v
            self.rows.setdefault(a, {})[b] = v
        self.limits: dict[int, dict[int, int]] = {}
        for (a, b), v in lower_limits.items():
            self.limits.setdefault(a, {})[b] = v
        # the adjustable set D: initially unbalanced classes, plus class 1
        adjustable = {1}
        for k in range(1, dv_targets.k_max + 1):
            if self.s(k) != self.s_star(k):
                adjustable.add(k)
        # D is fixed for the run, and the candidate lists follow its set
        # iteration order, which is not ascending ({1, 3, 17, 33, 50}
        # iterates as 1, 33, 3, 17, 50).  rng.choice breaks cost ties by
        # position in that order, so the order is part of the output.
        self.adjustable = list(adjustable)  # reprolint: disable=REP401 the golden digests pin this order

    def s(self, k: int) -> int:
        """Present class degree mass."""
        return self.sums.get(k, 0)

    def s_star(self, k: int) -> int:
        """Target class degree mass ``k n*(k)``."""
        return k * self.dv.counts.get(k, 0)

    def bump(self, k: int, kp: int, sign: int) -> None:
        """Apply ``m*(k,kp) += sign`` symmetrically and maintain the sums."""
        new = self.jdm.get((k, kp), 0) + sign
        if new < 0:
            raise RealizabilityError(f"m*({k},{kp}) would go negative")
        if new == 0:
            self.jdm.pop((k, kp), None)
            self.jdm.pop((kp, k), None)
            self.rows[k].pop(kp, None)
            self.rows[kp].pop(k, None)
        else:
            self.jdm[(k, kp)] = new
            self.jdm[(kp, k)] = new
            self.rows.setdefault(k, {})[kp] = new
            self.rows.setdefault(kp, {})[k] = new
        if k == kp:
            self.sums[k] = self.sums.get(k, 0) + 2 * sign
        else:
            self.sums[k] = self.sums.get(k, 0) + sign
            self.sums[kp] = self.sums.get(kp, 0) + sign

    def grow_class(self, k: int, amount: int) -> None:
        """Raise ``n*(k)`` (shifts ``s*(k)`` upward by ``k * amount``)."""
        self.dv.counts[k] = self.dv.counts.get(k, 0) + amount

    def pick_best(self, candidates: list[int], k: int, sign: int) -> int:
        """Candidate ``k'`` minimizing the relative-error increase of
        ``m*(k,k') += sign`` (Δ+ / Δ-), random among ties."""
        row = self.rows.get(k, {})
        m_row = self.m_hat.get(k, {})
        best_cost = math.inf
        best: list[int] = []
        for kp in candidates:
            m = m_row.get(kp)
            if m is None:
                cost = math.inf
            else:
                current = row.get(kp, 0)
                cost = (abs(m - (current + sign)) - abs(m - current)) / m
            if cost < best_cost:
                best_cost = cost
                best = [kp]
            elif cost == best_cost:
                best.append(kp)
        if not best:
            raise RealizabilityError("no adjustable cell available")
        return best[0] if len(best) == 1 else self.rng.choice(best)


def _adjust(
    jdm: dict[DegreePair, int],
    m_hat: dict[int, dict[int, float]],
    dv_targets: DegreeVectorTargets,
    lower_limits: dict[DegreePair, int],
    rng: random.Random,
) -> None:
    state = _Adjuster(jdm, m_hat, dv_targets, lower_limits, rng)
    steps = 0
    for k in sorted(state.adjustable, reverse=True):
        if k == 1 and abs(state.s(1) - state.s_star(1)) % 2 == 1:
            state.grow_class(1, 1)  # lines 2-3: make the class-1 gap even
        while state.s(k) != state.s_star(k):
            steps += 1
            if steps > _MAX_ADJUST_STEPS:
                raise RealizabilityError(
                    "JDM adjustment exceeded its step budget (inconsistent targets?)"
                )
            if state.s(k) < state.s_star(k):
                _raise_class(state, k)
            else:
                _lower_class(state, k)


def _raise_class(state: _Adjuster, k: int) -> None:
    """One increase step for class ``k`` (lines 5-9 of Algorithm 3)."""
    gap_is_one = state.s(k) == state.s_star(k) - 1
    candidates = [
        kp for kp in state.adjustable if kp <= k and not (gap_is_one and kp == k)
    ]
    if not candidates:
        raise RealizabilityError(
            f"class {k}: no cell available to raise s({k}) "
            f"from {state.s(k)} to {state.s_star(k)}"
        )
    kp = state.pick_best(candidates, k, sign=+1)
    state.bump(k, kp, +1)


def _lower_class(state: _Adjuster, k: int) -> None:
    """One decrease step for class ``k`` (lines 10-20 of Algorithm 3)."""
    gap_is_one = state.s(k) == state.s_star(k) + 1
    row = state.rows.get(k, {})
    limits = state.limits.get(k, {})
    candidates = [
        kp
        for kp in state.adjustable
        if kp <= k
        and not (gap_is_one and kp == k)
        and row.get(kp, 0) > limits.get(kp, 0)
    ]
    if candidates:
        kp = state.pick_best(candidates, k, sign=-1)
        state.bump(k, kp, -1)
        return
    # nothing can be lowered: raise the target instead (lines 16-20)
    if k == 1:
        state.grow_class(1, 2)  # keeps |s*(1) - s(1)| even
    else:
        state.grow_class(k, 1)


# ----------------------------------------------------------------------
# Algorithm 4: modification toward JDM-4
# ----------------------------------------------------------------------
def _modify_for_subgraph(
    jdm: dict[DegreePair, int],
    m_hat: dict[int, dict[int, float]],
    dv_targets: DegreeVectorTargets,
    census: dict[DegreePair, int],
    rng: random.Random,
) -> None:
    state = _Adjuster(jdm, m_hat, dv_targets, lower_limits=census, rng=rng)
    for (k1, k2), need in sorted(census.items()):
        if k2 < k1:
            continue  # symmetric census: visit each unordered pair once
        while jdm.get((k1, k2), 0) < need:
            state.bump(k1, k2, +1)
            k3 = _compensate(state, k_class=k1, exclude=k2)
            k4 = _compensate(state, k_class=k2, exclude=k2)
            if k3 is not None and k4 is not None:
                state.bump(k3, k4, +1)


def _compensate(state: _Adjuster, k_class: int, exclude: int) -> int | None:
    """Lower one slack cell of ``k_class`` to offset a forced raise.

    Only nonzero cells can sit above their census, so the candidates come
    from the row index, in ascending ``k'`` order.  Returns the sibling
    degree lowered, or None when every cell of the class is pinned at its
    census (the later re-run of Algorithm 3 repairs the class sum instead).
    """
    limits = state.limits.get(k_class, {})
    candidates = sorted(
        kp
        for kp, value in state.rows.get(k_class, {}).items()
        if kp != k_class and kp != exclude and value > limits.get(kp, 0)
    )
    if not candidates:
        return None
    kp = state.pick_best(candidates, k_class, sign=-1)
    state.bump(k_class, kp, -1)
    return kp
