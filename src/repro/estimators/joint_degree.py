"""Joint-degree-distribution estimator (hybrid IE / TE of Gjoka et al.).

Two complementary estimators are combined (Section III-E, unbiasedness
proved in the paper's Appendix A):

* **Traversed edges (TE)** — each consecutive walk step samples an edge
  uniformly from the edge stationary distribution, so the empirical degree
  pair frequency of the ``r - 1`` steps estimates ``P(k, k')`` directly.
  Accurate for the low-degree pairs the walk traverses often.
* **Induced edges (IE)** — every far-apart position pair ``(i, j)`` is an
  (approximately) independent draw of two degree-biased nodes; counting the
  adjacent ones and re-weighting by ``n^ k̄^ / (k k' |I|)`` estimates the
  same quantity.  Accurate for high-degree pairs, which far pairs hit often
  even when single steps rarely traverse them.

The hybrid uses IE when ``k + k' >= 2 k̄^`` and TE otherwise.
"""

from __future__ import annotations

from repro.estimators.average_degree import estimate_average_degree
from repro.estimators.node_count import estimate_num_nodes
from repro.estimators.walk_index import WalkIndex
from repro.sampling.walkers import SamplingList

DegreePair = tuple[int, int]


def traversed_edges_estimate(walk: SamplingList | WalkIndex) -> dict[DegreePair, float]:
    """``P^_TE(k, k')`` as a sparse symmetric mapping.

    ``P^_TE(k,k') = (1/(2(r-1))) sum_i [1{d_i=k, d_i+1=k'} + 1{d_i=k', d_i+1=k}]``.
    """
    index = walk if isinstance(walk, WalkIndex) else WalkIndex(walk)
    degrees = index.degrees
    r = index.r
    est: dict[DegreePair, float] = {}
    unit = 1.0 / (2.0 * (r - 1))
    for i in range(r - 1):
        k, kp = degrees[i], degrees[i + 1]
        est[(k, kp)] = est.get((k, kp), 0.0) + unit
        est[(kp, k)] = est.get((kp, k), 0.0) + unit
    return est


def induced_edges_estimate(
    walk: SamplingList | WalkIndex,
    n_hat: float | None = None,
    k_hat: float | None = None,
) -> dict[DegreePair, float]:
    """``P^_IE(k, k') = n^ k̄^ Φ(k, k')`` as a sparse symmetric mapping.

    ``Φ(k,k')`` sums adjacency over far position pairs; instead of O(r^2)
    pair enumeration, we iterate over adjacent pairs of *distinct sampled
    nodes* and count their far position pairs combinatorially.
    """
    index = walk if isinstance(walk, WalkIndex) else WalkIndex(walk)
    if n_hat is None:
        n_hat = estimate_num_nodes(index)
    if k_hat is None:
        k_hat = estimate_average_degree(index)
    size_i = index.num_far_pairs
    est: dict[DegreePair, float] = {}
    if size_i <= 0:
        return est
    scale = n_hat * k_hat / size_i
    nodes = list(index.positions)
    node_rank = {u: i for i, u in enumerate(nodes)}
    for u in nodes:
        du = len(index.walk.neighbors[u])
        for v in index.neighbor_sets[u]:
            if v == u or v not in node_rank or node_rank[v] <= node_rank[u]:
                continue  # each sampled adjacent pair handled once
            dv = len(index.walk.neighbors[v])
            pairs_uv = index.far_ordered_pair_count(u, v)
            pairs_vu = index.far_ordered_pair_count(v, u)
            contrib = scale * (pairs_uv + pairs_vu) / (du * dv)
            # the (k, k') and (k', k) cells each receive half of the
            # ordered-pair mass, keeping the mapping symmetric
            est[(du, dv)] = est.get((du, dv), 0.0) + contrib / 2.0
            est[(dv, du)] = est.get((dv, du), 0.0) + contrib / 2.0
    return est


def estimate_joint_degree_distribution(
    walk: SamplingList | WalkIndex,
    n_hat: float | None = None,
    k_hat: float | None = None,
) -> dict[DegreePair, float]:
    """Hybrid ``P^(k, k')``: IE for ``k + k' >= 2 k̄^``, TE otherwise.

    Returns a sparse symmetric mapping over the degree pairs observed by
    either sub-estimator (cells selected by the hybrid rule but absent from
    the chosen sub-estimator are simply missing, i.e. estimated as 0).
    """
    index = walk if isinstance(walk, WalkIndex) else WalkIndex(walk)
    if k_hat is None:
        k_hat = estimate_average_degree(index)
    te = traversed_edges_estimate(index)
    ie = induced_edges_estimate(index, n_hat=n_hat, k_hat=k_hat)
    threshold = 2.0 * k_hat
    hybrid: dict[DegreePair, float] = {}
    for pair, value in te.items():
        if pair[0] + pair[1] < threshold and value > 0.0:
            hybrid[pair] = value
    for pair, value in ie.items():
        if pair[0] + pair[1] >= threshold and value > 0.0:
            hybrid[pair] = value
    return hybrid
