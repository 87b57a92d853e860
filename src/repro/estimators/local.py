"""Bundle of the five local-property estimates (the pipeline's input record).

The restoration pipeline (both the proposed method and the Gjoka baseline)
consumes exactly the five estimates of Section III-E; they are computed
once from a shared :class:`WalkIndex` and carried in a single immutable
:class:`LocalEstimates` record together with the derived quantities the
target-construction phases need (``n^ P^(k)``, ``m^(k,k') = n^ k̄^ P^(k,k')
/ mu(k,k')``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.estimators.average_degree import estimate_average_degree
from repro.estimators.clustering import estimate_degree_clustering
from repro.estimators.degree_distribution import estimate_degree_distribution
from repro.estimators.joint_degree import (
    DegreePair,
    estimate_joint_degree_distribution,
)
from repro.estimators.node_count import estimate_num_nodes
from repro.estimators.walk_index import WalkIndex
from repro.sampling.walkers import SamplingList


def mu(k: int, k_prime: int) -> int:
    """Normalization factor of the joint degree distribution: 2 on the
    diagonal, 1 off it (Eq. (3) of the paper)."""
    return 2 if k == k_prime else 1


@dataclass(frozen=True)
class LocalEstimates:
    """The five re-weighted estimates plus derived target quantities."""

    num_nodes: float
    average_degree: float
    degree_distribution: dict[int, float] = field(default_factory=dict)
    joint_degree_distribution: dict[DegreePair, float] = field(default_factory=dict)
    degree_clustering: dict[int, float] = field(default_factory=dict)
    walk_length: int = 0

    # ------------------------------------------------------------------
    # derived quantities used by the construction phases
    # ------------------------------------------------------------------
    def p_degree(self, k: int) -> float:
        """``P^(k)`` (0 for unobserved degrees)."""
        return self.degree_distribution.get(k, 0.0)

    def p_joint(self, k: int, k_prime: int) -> float:
        """``P^(k, k')`` (0 for unobserved pairs)."""
        return self.joint_degree_distribution.get((k, k_prime), 0.0)

    def clustering(self, k: int) -> float:
        """``c̄^(k)`` (0 for unobserved degrees)."""
        return self.degree_clustering.get(k, 0.0)

    def n_of_degree(self, k: int) -> float:
        """``n^(k) = n^ P^(k)``: the raw (real-valued) target for the number
        of degree-``k`` nodes."""
        return self.num_nodes * self.p_degree(k)

    def m_of_pair(self, k: int, k_prime: int) -> float:
        """``m^(k,k') = n^ k̄^ P^(k,k') / mu``: the raw target for the number
        of edges between degree classes ``k`` and ``k'``."""
        return (
            self.num_nodes
            * self.average_degree
            * self.p_joint(k, k_prime)
            / mu(k, k_prime)
        )

    def max_observed_degree(self) -> int:
        """Largest degree with ``P^(k) > 0`` (0 when no estimate exists)."""
        positive = [k for k, p in self.degree_distribution.items() if p > 0.0]
        return max(positive, default=0)


def estimate_local_properties(walk: SamplingList | WalkIndex) -> LocalEstimates:
    """Run all five estimators of Section III-E over one walk."""
    index = walk if isinstance(walk, WalkIndex) else WalkIndex(walk)
    n_hat = estimate_num_nodes(index)
    k_hat = estimate_average_degree(index)
    return LocalEstimates(
        num_nodes=n_hat,
        average_degree=k_hat,
        degree_distribution=estimate_degree_distribution(index),
        joint_degree_distribution=estimate_joint_degree_distribution(
            index, n_hat=n_hat, k_hat=k_hat
        ),
        degree_clustering=estimate_degree_clustering(index),
        walk_length=index.r,
    )


def exact_local_properties(graph) -> LocalEstimates:
    """Ground-truth :class:`LocalEstimates` computed from a full graph.

    Used by tests (estimator convergence targets) and by the dK-series API,
    which generates graphs from exact local properties when the whole graph
    is available.
    """
    from repro.metrics.basic import degree_distribution as exact_pk
    from repro.metrics.basic import joint_degree_distribution as exact_pkk
    from repro.metrics.clustering import degree_dependent_clustering as exact_ck

    return LocalEstimates(
        num_nodes=float(graph.num_nodes),
        average_degree=graph.average_degree(),
        degree_distribution=exact_pk(graph),
        joint_degree_distribution=exact_pkk(graph),
        degree_clustering=exact_ck(graph),
        walk_length=0,
    )
