"""Triangle-based properties: t_i, c̄, c̄(k), and the edgewise
shared-partner distribution P(s).

Triangle counts follow the paper's multiplicity-aware definition
``t_i = sum_{j<l, j,l != i} A_ij A_il A_jl``.  With loops removed from the
adjacency matrix, ``diag(A^3) = 2 t_i`` exactly (any term touching the
diagonal vanishes), so the counts come from one sparse matrix product.
"""

from __future__ import annotations

import numpy as np

from repro.graph.multigraph import MultiGraph, Node
from repro.metrics.matrix import node_ordering, to_csr


def triangles_per_node(
    graph: MultiGraph, backend: str = "python"
) -> dict[Node, float]:
    """``{t_i}``: (possibly fractional-free) triangle count through each node.

    ``backend`` selects the compute path (``"csr"`` / ``"auto"`` run
    :func:`repro.engine.kernels.triangles_per_node` on a frozen snapshot).
    """
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.triangles_per_node(csr)
    if graph.num_nodes == 0:
        return {}
    nodes, index = node_ordering(graph)
    a = to_csr(graph, index=index, drop_loops=True)
    a2 = a @ a
    # diag(A^3)_i = sum_j (A^2)_ij A_ji = rowwise dot of A^2 and A
    diag3 = np.asarray(a2.multiply(a).sum(axis=1)).ravel()
    return {u: diag3[i] / 2.0 for i, u in enumerate(nodes)}


def network_clustering(graph: MultiGraph, backend: str = "python") -> float:
    """Network clustering coefficient ``c̄ = (1/n) sum_i 2 t_i / (d_i (d_i - 1))``.

    Nodes of degree < 2 contribute 0 (their local coefficient is undefined
    and conventionally zero).
    """
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.network_clustering(csr)
    n = graph.num_nodes
    if n == 0:
        return 0.0
    tri = triangles_per_node(graph)
    total = 0.0
    for u, t in tri.items():
        d = graph.degree(u)
        if d >= 2:
            total += 2.0 * t / (d * (d - 1))
    return total / n


def degree_dependent_clustering(
    graph: MultiGraph, backend: str = "python"
) -> dict[int, float]:
    """``{c̄(k)}``: mean local clustering of degree-``k`` nodes, ``c̄(1) = 0``."""
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.degree_dependent_clustering(csr)
    if graph.num_nodes == 0:
        return {}
    tri = triangles_per_node(graph)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for u, t in tri.items():
        d = graph.degree(u)
        if d == 0:
            continue
        local = 2.0 * t / (d * (d - 1)) if d >= 2 else 0.0
        sums[d] = sums.get(d, 0.0) + local
        counts[d] = counts.get(d, 0) + 1
    return {k: sums[k] / counts[k] for k in counts}


def shared_partner_distribution(
    graph: MultiGraph, backend: str = "python"
) -> dict[int, float]:
    """``{P(s)}``: fraction of edges whose endpoints share ``s`` neighbors.

    ``sp(i,j) = sum_k A_ik A_jk`` (Hunter's edgewise shared partners); each
    parallel copy of an edge contributes separately, loops are excluded
    (the paper sums over ``i < j``).

    ``backend`` selects the compute path (``"csr"`` / ``"auto"`` run
    :func:`repro.engine.kernels.shared_partner_distribution` on a frozen
    snapshot).
    """
    from repro.engine import dispatch, kernels

    csr = dispatch.snapshot_for(graph, backend)
    if csr is not None:
        return kernels.shared_partner_distribution(csr)
    m = graph.num_edges
    if m == 0:
        return {}
    nodes, index = node_ordering(graph)
    a = to_csr(graph, index=index, drop_loops=True)
    a2 = (a @ a).tocsr()  # (A^2)_ij = shared-partner count between i and j
    rows: list[int] = []
    cols: list[int] = []
    for u, v in graph.edges():
        if u == v:
            continue  # loops excluded: the paper sums over i < j
        rows.append(index[u])
        cols.append(index[v])
    if not rows:
        return {}
    shared = np.asarray(a2[rows, cols]).ravel()
    dist: dict[int, float] = {}
    for s in shared:
        key = int(round(s))
        dist[key] = dist.get(key, 0.0) + 1.0
    effective = len(rows)
    return {s: c / effective for s, c in dist.items()}
