"""Numpy/scipy kernels over :class:`~repro.engine.csr.CSRGraph` snapshots.

Each kernel is the vectorized twin of a pure-Python routine elsewhere in the
library and returns the *same* value (exactly for the integer-valued
quantities — degree vector, joint degree matrix, triangle counts, which are
integer arithmetic carried in float64 — and to float round-off for the
averaged clustering aggregates, whose summation order differs):

=============================  =============================================
kernel                         pure-Python reference
=============================  =============================================
``degree_vector``              :func:`repro.metrics.basic.degree_vector`
``joint_degree_matrix``        :func:`repro.metrics.basic.joint_degree_matrix`
``triangles_per_node``         :func:`repro.metrics.clustering.triangles_per_node`
``network_clustering``         :func:`repro.metrics.clustering.network_clustering`
``degree_dependent_clustering``:func:`repro.metrics.clustering.degree_dependent_clustering`
=============================  =============================================
"""

from __future__ import annotations

import random

import numpy as np
from scipy import sparse

from repro.engine.csr import CSRGraph
from repro.graph.multigraph import Node
from repro.utils.rng import ensure_rng

DegreePair = tuple[int, int]


def ensure_generator(
    rng: np.random.Generator | random.Random | int | None = None,
) -> np.random.Generator:
    """Coerce any of the library's rng spellings into a numpy Generator.

    A :class:`random.Random` is bridged by drawing a 64-bit seed from it, so
    experiment code that threads one rng through everything stays
    reproducible when part of the work runs on the array kernels.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    return np.random.default_rng(ensure_rng(rng).getrandbits(64))


# ----------------------------------------------------------------------
# degree kernels
# ----------------------------------------------------------------------
def degree_vector(csr: CSRGraph) -> dict[int, int]:
    """``{n(k)}`` over ``k >= 1`` — twin of ``metrics.basic.degree_vector``.

    Parameters
    ----------
    csr:
        Frozen snapshot; degrees come off ``indptr`` differences, loops
        contributing 2 as in the reference.

    Returns
    -------
    dict[int, int]
        Node count per degree class, degree-0 nodes excluded (the paper's
        degree vectors start at ``k = 1``).  Exactly the reference values.
    """
    deg = csr.degree_array()
    deg = deg[deg >= 1]
    ks, counts = np.unique(deg, return_counts=True)
    return {int(k): int(c) for k, c in zip(ks, counts, strict=True)}


def degree_distribution(csr: CSRGraph) -> dict[int, float]:
    """``{P(k) = n(k) / n}`` over ``k >= 1``.

    Returns
    -------
    dict[int, float]
        :func:`degree_vector` normalized by the node count; divisions
        mirror the reference, so the floats are bit-identical.
    """
    n = csr.num_nodes
    if n == 0:
        return {}
    return {k: c / n for k, c in degree_vector(csr).items()}


def joint_degree_matrix(csr: CSRGraph) -> dict[DegreePair, int]:
    """``{m(k, k')}`` stored symmetrically — twin of the metrics version.

    Counts edge slots per ordered degree pair: an off-diagonal cell receives
    exactly one slot per edge, a diagonal cell two per edge (whether from a
    ``k``–``k`` edge or a loop), so halving the diagonal recovers the
    edge-counting convention exactly.
    """
    if csr.num_edges == 0:
        return {}
    deg = csr.degree_array()
    src_deg = np.repeat(deg, deg)  # slot -> degree of owning node
    dst_deg = deg[csr.indices]
    stride = int(deg.max()) + 1
    keys = src_deg * stride + dst_deg
    uniq, counts = np.unique(keys, return_counts=True)
    m: dict[DegreePair, int] = {}
    for key, c in zip(uniq.tolist(), counts.tolist(), strict=True):
        k, kp = divmod(key, stride)
        m[(k, kp)] = c // 2 if k == kp else c
    return m


def joint_degree_distribution(csr: CSRGraph) -> dict[DegreePair, float]:
    """``{P(k,k') = mu m(k,k') / (2m)}`` — twin of the metrics version.

    Returns
    -------
    dict[tuple[int, int], float]
        Symmetric sparse mapping; the diagonal factor ``mu(k,k) = 2``
        makes the entries sum to 1 (Eq. (3) of the paper).
    """
    total = csr.num_edges
    if total == 0:
        return {}
    out: dict[DegreePair, float] = {}
    for (k, kp), count in joint_degree_matrix(csr).items():
        mu = 2 if k == kp else 1
        out[(k, kp)] = mu * count / (2.0 * total)
    return out


# ----------------------------------------------------------------------
# triangle / clustering kernels
# ----------------------------------------------------------------------
def triangle_count_array(csr: CSRGraph) -> np.ndarray:
    """``float64[n]`` per-node triangle counts ``t_i`` (multiplicity-aware).

    Computes ``t_i = sum_{j<l} A_ij A_il A_jl`` by *degree orientation*
    instead of the reference path's full ``diag(A^3)``: every edge is
    directed from its lower-(degree, index) endpoint to the higher one,
    giving a strictly upper-triangular (in that order) matrix ``U`` whose
    rows are short even at hubs.  Each triangle ``{j < k < l}`` then carries
    weight ``w = A_jk A_kl A_jl`` in exactly one cell of

    * ``M = (U U) ∘ U``   at ``(j, l)``  (apex = minimum node), and
    * ``Z = (Uᵀ U) ∘ U``  at ``(k, l)``  (apex = middle node),

    so row sums of ``M`` attribute ``w`` to the minimum node, row sums of
    ``Z`` to the middle node, and column sums of ``M`` to the maximum node.
    All arithmetic is integer-valued in float64, hence exactly equal to the
    reference counts; the two oriented products cost far fewer flops than
    ``A @ A`` on heavy-tailed graphs (no hub-squared wedge terms).

    The result is cached on the snapshot, so the clustering kernels share
    one computation.
    """
    cached = csr._triangle_cache
    if cached is not None:
        return cached
    n = csr.num_nodes
    if n == 0:
        tri = np.zeros(0, dtype=np.float64)
    else:
        a = csr.adjacency_matrix(drop_loops=True).tocoo()
        order = np.lexsort((np.arange(n), csr.degree_array()))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        mask = rank[a.row] < rank[a.col]
        u = sparse.csr_matrix(
            (a.data[mask], (a.row[mask], a.col[mask])), shape=(n, n)
        )
        m = (u @ u).multiply(u)
        z = (u.T @ u).multiply(u)
        tri = (
            np.asarray(m.sum(axis=1)).ravel()
            + np.asarray(z.sum(axis=1)).ravel()
            + np.asarray(m.sum(axis=0)).ravel()
        )
    tri.setflags(write=False)
    csr._triangle_cache = tri
    return tri


def triangles_per_node(csr: CSRGraph) -> dict[Node, float]:
    """``{t_i}`` keyed by original node id.

    Returns
    -------
    dict[Node, float]
        :func:`triangle_count_array` re-keyed through ``node_list`` —
        integer counts carried in float64, exactly the reference values.
    """
    tri = triangle_count_array(csr)
    return {u: float(tri[i]) for i, u in enumerate(csr.node_list)}


def local_clustering_array(csr: CSRGraph) -> np.ndarray:
    """Per-node local clustering coefficients, positionally indexed.

    Returns
    -------
    numpy.ndarray
        ``float64[n]`` values ``2 t_i / (d_i (d_i - 1))``, 0 where the
        degree is below 2 (the conventional value for an undefined
        coefficient).  Shares the snapshot's triangle cache.
    """
    tri = triangle_count_array(csr)
    deg = csr.degree_array().astype(np.float64)
    denom = deg * (deg - 1.0)
    out = np.zeros(csr.num_nodes, dtype=np.float64)
    mask = deg >= 2.0
    out[mask] = 2.0 * tri[mask] / denom[mask]
    return out


def network_clustering(csr: CSRGraph) -> float:
    """``c̄`` — twin of ``metrics.clustering.network_clustering``.

    Returns
    -------
    float
        Mean local coefficient over all nodes.  The vectorized reduction
        sums in a different order than the reference loop, so agreement
        is to float round-off (1e-12 relative), the engine's documented
        bar for the averaged clustering aggregates.
    """
    n = csr.num_nodes
    if n == 0:
        return 0.0
    return float(local_clustering_array(csr).sum() / n)


def degree_dependent_clustering(csr: CSRGraph) -> dict[int, float]:
    """``{c̄(k)}`` — twin of ``metrics.clustering.degree_dependent_clustering``.

    Returns
    -------
    dict[int, float]
        Mean local coefficient per degree class ``k >= 1`` (``c̄(1) = 0``),
        to float round-off of the reference (see
        :func:`network_clustering`).
    """
    if csr.num_nodes == 0:
        return {}
    local = local_clustering_array(csr)
    deg = csr.degree_array()
    mask = deg >= 1
    deg, local = deg[mask], local[mask]
    if deg.size == 0:
        return {}
    ks, inverse, counts = np.unique(deg, return_inverse=True, return_counts=True)
    sums = np.zeros(ks.shape[0], dtype=np.float64)
    np.add.at(sums, inverse, local)
    return {int(k): float(s / c) for k, s, c in zip(ks, sums, counts, strict=True)}


def neighbor_connectivity(csr: CSRGraph) -> dict[int, float]:
    """``{k̄nn(k)}`` — twin of ``metrics.basic.neighbor_connectivity``.

    Parameters
    ----------
    csr:
        Frozen snapshot (multiplicities and loops honored through the
        edge-slot expansion: each slot contributes its endpoint's degree).

    Returns
    -------
    dict[int, float]
        Mean neighbor degree per degree class ``k >= 1``.  Bit-identical
        to the reference: the per-node slot-degree sums are integers in
        float64 (exact), and the per-class accumulation runs in node
        insertion order via the unbuffered ``np.add.at``.
    """
    n = csr.num_nodes
    if n == 0:
        return {}
    deg = csr.degree_array()
    row_of_slot = np.repeat(np.arange(n, dtype=np.int64), deg)
    slot_sums = np.bincount(
        row_of_slot, weights=deg[csr.indices].astype(np.float64), minlength=n
    )
    mask = deg >= 1
    if not mask.any():
        return {}
    per_node = slot_sums[mask] / deg[mask]
    ks, inverse, class_counts = np.unique(
        deg[mask], return_inverse=True, return_counts=True
    )
    sums = np.zeros(ks.shape[0], dtype=np.float64)
    np.add.at(sums, inverse, per_node)
    return {int(k): float(s / c) for k, s, c in zip(ks, sums, class_counts, strict=True)}


def shared_partner_distribution(csr: CSRGraph) -> dict[int, float]:
    """``{P(s)}`` — twin of ``metrics.clustering.shared_partner_distribution``.

    Parameters
    ----------
    csr:
        Frozen snapshot.  Parallel copies of an edge contribute separately
        (one slot pair per copy); loops are excluded, as in the reference.

    Returns
    -------
    dict[int, float]
        Fraction of edges whose endpoints share ``s`` neighbors.  The
        shared-partner counts come from the same ``A @ A`` product as the
        reference (integer arithmetic in float64, exact), read at the slot
        pairs with ``source < target`` — one read per non-loop edge copy.
    """
    if csr.num_edges == 0:
        return {}
    n = csr.num_nodes
    a = csr.adjacency_matrix(drop_loops=True)
    a2 = (a @ a).tocsr()
    src = np.repeat(np.arange(n, dtype=np.int64), csr.degree_array())
    dst = csr.indices
    keep = src < dst  # one slot per edge copy; loops dropped
    rows, cols = src[keep], dst[keep]
    if rows.size == 0:
        return {}
    shared = np.asarray(a2[rows, cols]).ravel()
    values, value_counts = np.unique(
        np.rint(shared).astype(np.int64), return_counts=True
    )
    effective = rows.size
    return {int(s): float(c / effective) for s, c in zip(values, value_counts, strict=True)}
