"""Degree-based local properties: P(k), n(k), P(k,k'), m(k,k'), k̄nn(k).

All functions honor the multigraph adjacency convention (``A_uu`` is twice
the loop count), so they are exact on generated graphs that contain
parallels or loops as well as on the simple originals.
"""

from __future__ import annotations

from collections import Counter

from repro.estimators.joint_degree import DegreePair
from repro.graph.multigraph import MultiGraph


def degree_vector(graph: MultiGraph, backend: str = "python") -> dict[int, int]:
    """``{n(k)}``: number of nodes of each degree ``k >= 1``.

    Degree-0 nodes are excluded: the paper's degree vectors start at
    ``k = 1`` (its graphs are connected) and the dK machinery never places
    isolated nodes.

    ``backend`` selects the compute path (``"python"`` here keeps the
    reference loop; ``"csr"`` / ``"auto"`` run
    :func:`repro.engine.kernels.degree_vector` on a frozen snapshot).
    """
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.degree_vector(csr)
    hist = graph.degree_histogram()
    return {k: c for k, c in hist.items() if k >= 1}


def degree_distribution(
    graph: MultiGraph, backend: str = "python"
) -> dict[int, float]:
    """``{P(k) = n(k) / n}`` over degrees ``k >= 1``."""
    n = graph.num_nodes
    if n == 0:
        return {}
    return {k: c / n for k, c in degree_vector(graph, backend=backend).items()}


def joint_degree_matrix(
    graph: MultiGraph, backend: str = "python"
) -> dict[DegreePair, int]:
    """``{m(k, k')}``: edges between degree classes, stored symmetrically.

    ``m(k, k')`` counts each edge once; the mapping carries both ``(k, k')``
    and ``(k', k)`` with equal values so lookups need no canonicalization.
    Loops at a degree-``k`` node count toward ``m(k, k)`` (one per loop).
    """
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.joint_degree_matrix(csr)
    degrees = graph.degrees()
    m: dict[DegreePair, int] = {}
    for u, v in graph.edges():
        k, kp = degrees[u], degrees[v]
        if k == kp:
            m[(k, k)] = m.get((k, k), 0) + 1
        else:
            m[(k, kp)] = m.get((k, kp), 0) + 1
            m[(kp, k)] = m.get((kp, k), 0) + 1
    return m


def joint_degree_distribution(
    graph: MultiGraph, backend: str = "python"
) -> dict[DegreePair, float]:
    """``{P(k,k') = mu(k,k') m(k,k') / (2m)}`` (Eq. (3)), symmetric sparse.

    The diagonal factor ``mu(k,k) = 2`` makes the entries sum to 1.
    """
    total = graph.num_edges
    if total == 0:
        return {}
    out: dict[DegreePair, float] = {}
    for (k, kp), count in joint_degree_matrix(graph, backend=backend).items():
        mu = 2 if k == kp else 1
        out[(k, kp)] = mu * count / (2.0 * total)
    return out


def neighbor_connectivity(
    graph: MultiGraph, backend: str = "python"
) -> dict[int, float]:
    """``{k̄nn(k)}``: mean neighbor degree of degree-``k`` nodes.

    ``k̄nn(k) = (1/n(k)) sum_{i: d_i=k} (1/k) sum_j A_ij d_j`` — multiplicity
    (and loops, via ``A_ii d_i``) included per the adjacency convention.

    ``backend`` selects the compute path (``"csr"`` / ``"auto"`` run
    :func:`repro.engine.kernels.neighbor_connectivity` on a frozen
    snapshot).
    """
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.neighbor_connectivity(csr)
    degrees = graph.degrees()
    sums: Counter[int] = Counter()
    counts: Counter[int] = Counter()
    for u in graph.nodes():
        k = degrees[u]
        if k == 0:
            continue
        acc = 0.0
        for v, a in graph.adjacency_view(u).items():
            acc += a * degrees[v]
        sums[k] += acc / k
        counts[k] += 1
    return {k: sums[k] / counts[k] for k in counts}
