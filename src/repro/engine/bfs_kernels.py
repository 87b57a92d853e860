"""BFS kernels: bit-parallel path-length histograms and Brandes sweeps.

The two most expensive global properties — the shortest-path triple
(l̄, {P(l)}, l_max) and betweenness centrality — reduce to breadth-first
search from many sources.  The pure-Python references in
:mod:`repro.metrics.paths` / :mod:`repro.metrics.betweenness` pay
interpreter overhead per edge per source; the kernels here advance many
sources per vectorized step:

* the path-length histogram is a multi-source BFS over bitsets (MS-BFS:
  Then et al., "The More the Merrier: Efficient Multi-Source Graph
  Traversal", PVLDB 8(4), 2014).  A block of ``B`` sources keeps
  ``ceil(B / 64)`` ``uint64`` words of seen and frontier bits per node;
  one level is one ``np.bitwise_or.reduceat`` of the frontier words over
  the ``indices`` gather, and its count of newly reached (source, target)
  pairs is a popcount, so each level's work is done once per word;
* Brandes expands a whole frontier per step with vectorized
  ``indptr``/``indices`` gathers, batching many sources at once
  (source-major composite ids ``b * n + v``; one source is a block of
  one), so the per-level Python overhead is amortized over every source
  in the block.  Each level's queue order comes from a scatter-min of
  slot positions (``np.minimum.at``, linear in the level's slots), and
  every masked selection is an ``np.compress``.

Bit-exactness contract
----------------------
Every kernel reproduces its reference *bit for bit* on a fixed seed:

* Distances are integers, so any evaluation order gives the same
  histogram; the aggregation into ``ShortestPathStats`` (float divisions,
  argmax tie-breaking for the double sweep) mirrors the reference
  expressions operand for operand.
* Brandes dependency accumulation is genuinely order-sensitive float
  arithmetic.  The reference adds contributions to ``delta[u]`` over
  successors ``v`` in *reverse BFS-queue order*; the frontier kernel keeps
  each level's frontier in BFS-queue order (the first occurrence of each
  id in the ``frontier x adjacency`` gather), stores the level's DAG edges
  sorted by the successor's queue position, and accumulates the reversed
  contribution stream with ``np.bincount`` — whose C kernel folds weights
  into each bin in input order, so the same IEEE additions happen in the
  same order as the reference's scalar loop.  Sigma counts are integers
  carried in float64 (exact up to ``2**53``, the same envelope the
  reference lives in).

The Brandes kernel treats every edge slot as one edge, so callers must
pass a *simple* snapshot (the metrics layer always freezes the simplified
largest component; loops are harmless — a loop neighbor sits one level
short of the DAG — but parallel slots would double sigma contributions).
The histogram kernel is multiplicity-insensitive and correct on any
snapshot.

Memory is bounded by processing sources in blocks.  A histogram block of
``64 W`` sources holds ``n x W`` words of bits and gathers ``2m x W``
words per level, with ``W`` derived from a fixed word budget (every one
of a sampled evaluation's sources fits one block on the stand-ins).
A Brandes block of ``b`` sources keeps 28 bytes per (source, node) pair:
int32 distances, float64 sigma and dependencies, and intp queue
positions.  One level holds two intp words per gathered slot (the
neighbor and its frontier member's queue rank) besides the distances
read there and the compressed backward and forward slots, and the
retained per-level DAG edges are ``O(b x m)``.  Ids are intp
throughout, so no fancy index converts its operand; a snapshot with int32
``indices`` (the store's zero-copy tier) passed straight to
:func:`brandes_scores` pays one intp copy of ``indices`` per call, while
the metrics layer always passes the int64 component snapshot of
:func:`simplified_lcc_snapshot`.

The kernels are built for the small-diameter graphs this project
evaluates (social networks, diameter ``O(log n)``).  A Brandes level pays
a small fixed overhead, and a histogram level costs ``O(2m x W)``
however small its frontier, so on pathological high-diameter graphs
(long paths, lattices) the per-level cost dominates and the scipy-backed
``python`` backend is the better choice — force ``backend="python"``
there.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.engine.csr import CSRGraph
from repro.errors import EngineError

#: Word budget (``uint64`` entries) of one histogram block: bounds the
#: ``2m x W`` gather of one level and the ``n x W`` bit state, so a block
#: carries ``64 W`` sources with ``W = budget // max(2m, n)``.
_DISTANCE_BLOCK_ENTRIES = 1_000_000

#: Entry budget for one Brandes block, which additionally retains the
#: per-level DAG edge arrays for the dependency back-propagation: a block
#: carries ``budget // max(n, 2m)`` sources, at least one.  Large graphs
#: land on single-source blocks; batching pays off for the many-tiny-level
#: sweeps of small graphs.
_BRANDES_BLOCK_ENTRIES = 250_000


def simplified_lcc_snapshot(csr: CSRGraph) -> CSRGraph:
    """Largest connected component of the simple projection, as a snapshot.

    Vectorized twin of the metrics prologue
    ``largest_connected_component(simplified(graph))`` — the per-edge
    Python passes that used to dominate the CSR branches of the path and
    betweenness metrics.  The result is *structurally identical* to
    freezing the reference construction:

    * node order is the input's insertion order filtered to the component;
    * each node's adjacency order is the reference's insertion order —
      every simple edge is emitted from its earlier endpoint in
      ``(owner position, owner adjacency order)`` sequence, and each
      emission appends to both endpoints' adjacency — which the frontier
      Brandes kernel's bit-exactness depends on.

    Components come from :func:`scipy.sparse.csgraph.connected_components`,
    whose labels follow first-discovery order over ascending node index,
    so the size ``argmax`` picks the same component as the reference's
    stable size-descending sort.  The result is cached on the input
    snapshot (one construction serves the whole 12-property evaluation).

    Parameters
    ----------
    csr:
        Snapshot of the full multigraph (loops and parallels allowed).

    Returns
    -------
    CSRGraph
        Simple, connected snapshot carrying the original node ids.
    """
    cached = csr._lcc_cache
    if cached is not None:
        return cached
    n = csr.num_nodes
    if n == 0:
        out = CSRGraph((), np.zeros(1, dtype=np.int64), np.empty(0, np.int64), 0)
        csr._lcc_cache = out
        return out
    deg = csr.degree_array()
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = csr.indices
    # one emission per simple edge, from the earlier endpoint, in the
    # reference's scan order: slot order already is (owner position,
    # adjacency position), so a first-occurrence dedup of the forward
    # slots reproduces `simplified` exactly (loops fail owner < dst)
    fwd = owner < dst
    keys = _first_occurrences(owner[fwd] * n + dst[fwd])
    edge_a, edge_b = np.divmod(keys, n)
    # each emission appends to both endpoints' adjacency at emission time:
    # interleave (a, b) ownership and group stably by owner
    stream_owner = np.column_stack((edge_a, edge_b)).ravel()
    stream_nbr = np.column_stack((edge_b, edge_a)).ravel()
    order = np.argsort(stream_owner, kind="stable")
    simple_counts = np.bincount(stream_owner, minlength=n)
    simple_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(simple_counts, out=simple_indptr[1:])
    simple_indices = stream_nbr[order]

    if keys.size == 0:
        # no simple edges: every component is a single node; the reference
        # keeps the first node (stable size sort over size-1 components)
        member = np.zeros(n, dtype=bool)
        member[0] = True
    else:
        adjacency = sparse.csr_matrix(
            (
                np.ones(simple_indices.size, dtype=np.int8),
                simple_indices,
                simple_indptr,
            ),
            shape=(n, n),
        )
        _, labels = csgraph.connected_components(adjacency, directed=False)
        # the reference's stable size-descending sort keeps the earliest
        # *discovered* component among equal sizes; recover that winner
        # without assuming anything about scipy's label numbering
        sizes = np.bincount(labels)
        _, first_seen = np.unique(labels, return_index=True)
        tied = np.flatnonzero(sizes == sizes.max())
        winner = tied[np.argmin(first_seen[tied])]
        member = labels == winner

    new_id = np.cumsum(member) - 1
    member_rows = np.flatnonzero(member)
    row_counts = simple_counts[member_rows]
    lcc_indptr = np.zeros(member_rows.size + 1, dtype=np.int64)
    np.cumsum(row_counts, out=lcc_indptr[1:])
    starts = simple_indptr[member_rows]
    ends = lcc_indptr[1:]
    spread = np.repeat(starts - (ends - row_counts), row_counts)
    slots = np.arange(int(row_counts.sum()), dtype=np.int64) + spread
    lcc_indices = new_id[simple_indices[slots]]
    node_list = csr.node_list
    nodes = tuple(node_list[i] for i in member_rows)
    out = CSRGraph(nodes, lcc_indptr, lcc_indices, lcc_indices.size // 2)
    csr._lcc_cache = out
    return out


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Subsequence of ``values`` keeping the first occurrence of each value.

    Vectorized first-occurrence dedup: a stable argsort (timsort: numpy's
    radix sort serves only integers of 16 bits or fewer) groups
    duplicates, the group heads map back to their original positions, and
    re-sorting those positions restores encounter order.  Serves
    :func:`simplified_lcc_snapshot`, whose one call per snapshot is not hot.
    """
    if values.size == 0:
        return values
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    head = np.empty(ranked.size, dtype=bool)
    head[0] = True
    head[1:] = ranked[1:] != ranked[:-1]
    first_pos = np.sort(order[head])
    return values[first_pos]


def _check_sources(csr: CSRGraph, sources: np.ndarray) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64).ravel()
    if src.size and (src.min() < 0 or src.max() >= csr.num_nodes):
        raise EngineError("BFS source index out of range")
    return src


def _check_batch_size(batch_size: int | None) -> None:
    if batch_size is not None and batch_size < 1:
        raise EngineError(f"batch_size must be at least 1, got {batch_size}")


def _block_size(csr: CSRGraph, num_sources: int, budget: int) -> int:
    per_source = max(1, csr.num_nodes, 2 * csr.num_edges)
    return max(1, min(num_sources, budget // per_source))


def pair_length_histogram(
    csr: CSRGraph,
    sources: np.ndarray,
    batch_size: int | None = None,
    track_farthest: bool = True,
    *,
    gather_slots: int | None = None,
) -> tuple[np.ndarray, int]:
    """Histogram of positive finite BFS distances from ``sources``.

    A bit-parallel multi-source BFS: a block of sources advances level by
    level over per-node ``uint64`` bitsets, and each level adds the
    popcount of its newly reached (source, target) bits to the histogram,
    so even exact all-pairs sweeps never hold a distance matrix.

    Parameters
    ----------
    csr:
        Frozen snapshot (any multigraph; parallels and loops do not change
        unweighted distances).
    sources:
        ``int64[S]`` positional BFS sources, in sampling order; a repeated
        source counts once per occurrence.
    batch_size:
        Sources per block, at least 1; a block of ``B`` sources keeps
        ``ceil(B / 64)`` words per node.  Defaults to ``64 W`` sources,
        ``W`` words filling the word budget.
    track_farthest:
        Skip locating the farthest node when ``False`` (exact sweeps never
        use it).
    gather_slots:
        Optional cap on the slots one level's gather may touch: the level
        is expanded in row ranges whose slots fit the cap (a row larger
        than the cap is a range by itself).  Bounds the transient memory
        of a level at ``O(gather_slots x W)`` words instead of
        ``O(m x W)`` — the knob out-of-core (mmap-backed) evaluation uses.
        Identical results.

    Returns
    -------
    counts, farthest:
        ``counts`` is the ``np.bincount`` of every finite source-to-target
        distance ``> 0`` (ordered pairs, ``counts[0] == 0``; empty when no
        pair is reachable).  ``farthest`` is the target-node index of the
        first maximal entry of the distance matrix in row-major order —
        the same node the reference's ``np.argmax`` double-sweep restarts
        from, the first source itself when no pair is reachable — or
        ``-1`` when not tracked or ``sources`` is empty.
    """
    src = _check_sources(csr, sources)
    _check_batch_size(batch_size)
    words = _DISTANCE_BLOCK_ENTRIES // max(1, csr.indices.size, csr.num_nodes)
    step = batch_size or 64 * max(1, words)
    segments = _row_segments(csr, gather_slots)
    totals = [0]
    best_level = -1
    farthest = -1
    for start in range(0, src.size, step):
        levels, last = _bitset_block(csr, src[start : start + step], segments)
        totals.extend([0] * (len(levels) - len(totals)))
        for level, found in enumerate(levels):
            totals[level] += found
        # strict: earlier blocks win ties, like the reference's argmax
        if track_farthest and len(levels) - 1 > best_level:
            best_level = len(levels) - 1
            farthest = _first_bit_node(last)
    if len(totals) == 1:
        return np.zeros(0, dtype=np.int64), farthest
    return np.asarray(totals, dtype=np.int64), farthest


#: One row range of a level's gather: ``(rows, nbrs, starts)``.
_Segment = tuple[np.ndarray | slice, np.ndarray, np.ndarray]


def _row_segments(csr: CSRGraph, gather_slots: int | None) -> list[_Segment]:
    """Row ranges of one level's gather, as ``(rows, nbrs, starts)``.

    One range holds every row unless ``gather_slots`` caps it; then
    consecutive rows share a range while their slots fit the cap.
    ``nbrs`` is the range's slice of ``indices``, and ``starts`` holds the
    first slot of each row in ``rows``, relative to it.  ``rows`` leaves
    out rows without slots, because ``reduceat`` returns an element even
    for an empty segment.
    """
    indptr = csr.indptr
    n = csr.num_nodes
    segments: list[_Segment] = []
    r = 0
    while r < n:
        stop = n
        if gather_slots is not None:
            fit = int(np.searchsorted(indptr, indptr[r] + gather_slots, "right")) - 1
            stop = min(max(fit, r + 1), n)
        rows: np.ndarray | slice = r + np.flatnonzero(np.diff(indptr[r : stop + 1]))
        if rows.size == stop - r:
            rows = slice(r, stop)
        lo = int(indptr[r])
        nbrs = csr.indices[lo : int(indptr[stop])]
        if nbrs.size:
            segments.append((rows, nbrs, indptr[rows] - lo))
        r = stop
    return segments


def _bitset_block(
    csr: CSRGraph,
    src: np.ndarray,
    segments: list[_Segment],
) -> tuple[list[int], np.ndarray]:
    """Bit-parallel BFS of one block of sources.

    Source ``j`` of the block owns bit ``j % 64`` of word ``j // 64`` in
    every node's row.  A level ORs each node's neighbors' frontier rows
    together (one ``reduceat`` per row range) and keeps the bits not seen
    before.

    Returns
    -------
    levels, last:
        The number of (source, target) pairs first reached at each level
        (``levels[0] == 0``), and the bits of the last level that reached
        any (the seeds when none did).
    """
    j = np.arange(src.size)
    frontier = np.zeros((csr.num_nodes, -(-src.size // 64)), dtype=np.uint64)
    # unbuffered OR: a buffered `frontier[src, w] |= bit` keeps only one of
    # two bits that repeated sources set in the same word
    bit = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    np.bitwise_or.at(frontier, (src, j >> 6), bit)
    unseen = ~frontier
    levels = [0]
    while True:
        reach = np.zeros_like(frontier)
        for rows, nbrs, starts in segments:
            if nbrs.dtype == np.intp:
                gathered = np.take(frontier, nbrs, axis=0)
            else:  # take would first copy the range's int32 ids to intp
                gathered = frontier[nbrs]
            reach[rows] = np.bitwise_or.reduceat(gathered, starts, axis=0)
            del gathered  # one range's gather alive at a time
        reach &= unseen
        found = int(np.bitwise_count(reach).sum())
        if not found:
            return levels, frontier
        levels.append(found)
        unseen ^= reach
        frontier = reach


def _first_bit_node(bits: np.ndarray) -> int:
    """Node carrying the lowest source bit set anywhere in ``bits``.

    Among the (source, node) pairs of one level, that is the first in
    row-major order of the block's distance matrix: the lowest source
    reaching the level, then the lowest node it reaches there.
    """
    words = np.bitwise_or.reduce(bits, axis=0)
    w = int(np.flatnonzero(words)[0])
    low = int(words[w])
    low &= -low
    return int(np.flatnonzero(bits[:, w] & np.uint64(low))[0])


def eccentricity(csr: CSRGraph, source: int) -> tuple[int, int]:
    """Eccentricity of ``source`` within its component.

    The one-source call of :func:`pair_length_histogram`.

    Returns
    -------
    far, ecc:
        ``far`` is the first reachable node at maximal distance (ascending
        node order among ties, matching the reference's
        ``finite[np.argmax(dist[finite])]``), ``ecc`` its hop count; an
        isolated source is its own farthest node, at 0 hops.
    """
    counts, far = pair_length_histogram(csr, np.asarray([source], dtype=np.int64))
    return far, max(counts.size - 1, 0)


def brandes_scores(
    csr: CSRGraph,
    sources: np.ndarray,
    batch_size: int | None = None,
) -> np.ndarray:
    """Brandes dependency scores accumulated over ``sources`` in order.

    One frontier sweep per level serves every source in a block: the
    forward pass records each level's BFS-queue-ordered frontier and its
    DAG edges (successor stored as a queue position, presorted by it),
    sigma accumulates through vectorized bincounts, and the backward pass
    replays the reference's dependency accumulation — per predecessor,
    contributions arrive in reverse queue order of the successor, so every
    float matches the per-node reference sweep.

    Parameters
    ----------
    csr:
        Frozen snapshot of a *simple* graph (see module notes).
    sources:
        ``int64[S]`` positional pivot indices, in pivot-sampling order.
    batch_size:
        Sources per block, at least 1; defaults to a fixed memory budget.

    Returns
    -------
    numpy.ndarray
        ``float64[n]`` unnormalized scores ``sum_s delta_s(v)`` — exactly
        the reference's per-source ``score[v] += delta[v]`` accumulation
        (the source itself excluded), before any pivot scaling.
    """
    src = _check_sources(csr, sources)
    _check_batch_size(batch_size)
    acc = np.zeros(csr.num_nodes, dtype=np.float64)
    step = batch_size or _block_size(csr, src.size, _BRANDES_BLOCK_ENTRIES)
    # every id below is intp, so no fancy index converts its operand
    indices = csr.indices.astype(np.intp, copy=False)
    for start in range(0, src.size, step):
        _brandes_block(csr.indptr, indices, src[start : start + step], acc)
    return acc


def _brandes_block(
    indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, acc: np.ndarray
) -> None:
    """Brandes sweeps from the sources ``src`` of one block, added to ``acc``.

    Source ``j`` of the block owns the composite ids ``j * n + v``, and the
    block's per-id state (distance, sigma, queue position, dependency)
    holds ``b * n`` entries.  A level gathers every neighbor slot of its
    frontier in ``frontier x adjacency`` order, the reference BFS's scan
    order, with each slot's frontier queue rank carried alongside.
    """
    n = acc.size
    b = src.size
    size = b * n
    dist = np.full(size, -1, dtype=np.int32)
    sigma = np.zeros(size, dtype=np.float64)
    # composite id -> queue position within its level; ids no level has
    # reached hold the sentinel, so a scatter-min of slot positions finds
    # the first occurrence of each newly reached id
    qpos = np.full(size, np.iinfo(np.intp).max, dtype=np.intp)
    roots = np.arange(b, dtype=np.intp) * n + src
    dist[roots] = 0
    sigma[roots] = 1.0
    qpos[roots] = np.arange(b, dtype=np.intp)
    fronts = [roots]  # per level, the frontier in BFS-queue order
    # DAG edges into level L, harvested sort-free from level L's own
    # expansion gather: a gathered slot (v at L, u at L-1) is the reverse
    # of DAG edge u -> v, and the gather enumerates them by v's queue
    # position ascending — exactly the grouping the back-propagation needs.
    rev_v: list[np.ndarray] = []  # v as queue position in fronts[L]
    rev_u: list[np.ndarray] = []  # u as queue position in fronts[L - 1]
    rev_sigma_u: list[np.ndarray] = []  # sigma[u], final at harvest time
    frontier = roots
    nodes = src
    level = 0
    while True:
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            break
        # per-slot rows built one at a time, so that at most two are alive:
        # the slot positions (a flat arange shifted to each row's range),
        # the composite base b * n, and the frontier member's queue rank
        nbr = indices[np.repeat(starts - (ends - counts), counts) + np.arange(total)]
        nbr += np.repeat(frontier - nodes, counts)
        owner = np.repeat(np.arange(nodes.size), counts)
        dval = dist[nbr]
        if level:  # level 0 has no inbound DAG edges (and -1 means fresh)
            back = dval == level - 1
            nbr_back = np.compress(back, nbr)
            rev_v.append(np.compress(back, owner))
            rev_u.append(qpos[nbr_back])
            rev_sigma_u.append(sigma[nbr_back])
        # slots whose endpoint is still undiscovered are exactly the DAG
        # edges into the next level (gathered endpoints are never deeper),
        # in frontier x adjacency order — the reference's scan order
        fwd = dval < 0
        e_dst = np.compress(fwd, nbr)
        if e_dst.size == 0:
            break
        # a FIFO BFS enqueues each id at its first slot: keep the slots
        # whose position is the smallest one scattered to their id
        slot = np.arange(e_dst.size)
        np.minimum.at(qpos, e_dst, slot)
        sigma_front = sigma[frontier]
        frontier = np.compress(qpos[e_dst] == slot, e_dst)
        level += 1
        dist[frontier] = level
        qpos[frontier] = np.arange(frontier.size)
        # sigma is integer-exact in float64, so bincount order is free here
        sigma[frontier] = np.bincount(
            qpos[e_dst],
            weights=sigma_front[np.compress(fwd, owner)],
            minlength=frontier.size,
        )
        fronts.append(frontier)
        nodes = frontier % n

    delta = np.zeros(size, dtype=np.float64)
    for depth in range(len(rev_v), 0, -1):
        front = fronts[depth]
        prev_front = fronts[depth - 1]
        # the reference computes coeff once per successor v and feeds
        # delta[u] in reverse queue order of v: reversing the harvested
        # edge stream hands bincount the same additions in the same order
        # (ties share a successor, hence distinct bins)
        coeff = (1.0 + delta[front]) / sigma[front]
        contrib = rev_sigma_u[depth - 1] * coeff[rev_v[depth - 1]]
        delta[prev_front] += np.bincount(
            rev_u[depth - 1][::-1], weights=contrib[::-1], minlength=prev_front.size
        )
    delta[roots] = 0.0
    block = delta.reshape(b, n)
    for row in range(b):  # per-source accumulation order, like the reference
        acc += block[row]
