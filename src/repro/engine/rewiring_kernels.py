"""The rewiring hill climb's two cores and what they share.

The clustering-targeting hill climb (the paper's Algorithm 6) performs
``R = RC x |candidates|`` attempts and accepts a swap iff the clustering
distance strictly decreases, committing sequentially.  Both cores live
here; ``dk/rewiring.py`` keeps the user-facing
:class:`~repro.dk.rewiring.RewiringEngine` facade, which picks one.

``PythonRewiringCore``
    The reference: one attempt at a time, by three rules.  ``_propose``
    orients, validates and scores an attempt's draws; ``_distance_after``
    is the distance rule, re-evaluating the degree classes a swap touches
    in ascending class order; ``_accept`` commits to the graph, the
    per-class triangle sums, the candidate list, the distance and the
    trace.

``CSRRewiringCore``
    The reference core plus a screen.  It subclasses the reference, keeps
    its state, rules and commit, and adds the array twins its screen
    reads: an incrementally-updated padded-CSR adjacency (sorted
    neighbor/multiplicity rows with one capacity slot per degree, so
    equal-degree swaps can never overflow a row), degree classes,
    per-class triangle sums and the candidate list as two index arrays.
    Proposals are screened in vectorized windows — batched candidate-pair
    gathers, degree-match orientation, loop/parallel rejection via a
    global-key multiplicity lookup, and triangle-delta scoring through
    sorted-neighbor intersections bucketed by degree class.  The scan
    stops only where the screened distance could beat the current one:
    there the row's exact class deltas go to the reference's distance
    rule.  Corner rows (coincident endpoints) and rows an accept made
    stale go to the reference's ``_propose``.  So accepted swaps, their
    order and the stored distances are the reference's.  After an accept
    the window is patched only where that swap can reach: rows drawing a
    rewritten candidate slot or sharing a node with the swap turn stale,
    and the other rows' screened corrections are redone only for their
    delta entries in the degree classes the swap changed.

``ProposalStream``
    The RNG-driven proposal stream both cores draw from.  Per attempt,
    four draws are taken from one :class:`numpy.random.Generator` in
    fixed-size blocks — candidate index 1, orientation uniform, candidate
    index 2, tie-break uniform.  The fourth draw is consumed
    unconditionally (the reference needs it only when both endpoints of
    the second edge match the pivot degree), which makes the stream
    independent of graph state; that is what lets the CSR core pre-draw
    whole blocks and still see the reference's draws, attempt by attempt,
    for a fixed seed.

The scalar scorer :func:`proposal_triangle_deltas` is a closed form over
the common neighbors of the four pairs a swap touches when its endpoints
are distinct, and the sequential overlay, the reference it must match,
when they coincide.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from repro.engine.dispatch import ensure_csr
from repro.engine.kernels import ensure_generator, triangle_count_array
from repro.graph.multigraph import MultiGraph, Node

Edge = tuple[Node, Node]

#: Attempts drawn per RNG block.  Both backends refill at identical stream
#: offsets (consumption is one attempt per attempt in either backend), so
#: the draw sequence is a pure function of the seed.
STREAM_BLOCK = 4096

#: Screened-distance slack below which a proposal is re-scored exactly.
#: Vectorized scoring sums per-class corrections in ascending-class order
#: while the reference sums in discovery order; the class *deltas* are
#: integer-exact either way, so only the final few ulps can differ.
SCREEN_EPS = 1e-12


# ----------------------------------------------------------------------
# shared proposal stream
# ----------------------------------------------------------------------
class ProposalStream:
    """Blocked RNG draws defining the rewiring proposal stream.

    ``next()`` serves the Python backend one attempt at a time (from
    pre-converted lists, so per-attempt overhead is a few list reads);
    ``window()`` / ``consume()`` serve the CSR backend array slices of the
    same block.  Either way the underlying generator is advanced in
    :data:`STREAM_BLOCK`-sized refills, so both backends see the exact
    same draw at the exact same attempt index.
    """

    __slots__ = (
        "_gen",
        "_n",
        "_pos",
        "_i1",
        "_c1",
        "_i2",
        "_c2",
        "_l1",
        "_lc1",
        "_l2",
        "_lc2",
    )

    def __init__(
        self,
        rng: np.random.Generator | random.Random | int | None,
        num_candidates: int,
    ) -> None:
        self._gen = ensure_generator(rng)
        self._n = num_candidates
        self._pos = STREAM_BLOCK  # forces a refill on first use
        self._i1 = self._c1 = self._i2 = self._c2 = None
        self._l1 = self._lc1 = self._l2 = self._lc2 = None

    def _refill(self) -> None:
        g = self._gen
        self._i1 = g.integers(0, self._n, size=STREAM_BLOCK)
        self._c1 = g.random(STREAM_BLOCK)
        self._i2 = g.integers(0, self._n, size=STREAM_BLOCK)
        self._c2 = g.random(STREAM_BLOCK)
        self._l1 = self._lc1 = self._l2 = self._lc2 = None
        self._pos = 0

    def next(self) -> tuple[int, float, int, float]:
        """Draws of the next attempt: ``(i1, c1, i2, c2)``."""
        if self._pos >= STREAM_BLOCK:
            self._refill()
        if self._l1 is None:
            self._l1 = self._i1.tolist()
            self._lc1 = self._c1.tolist()
            self._l2 = self._i2.tolist()
            self._lc2 = self._c2.tolist()
        p = self._pos
        self._pos = p + 1
        return self._l1[p], self._lc1[p], self._l2[p], self._lc2[p]

    def window(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Array views over the next ``<= count`` undrawn attempts.

        The views are *not* consumed; call :meth:`consume` with the number
        of attempts actually performed (scores computed past an accepted
        swap are discarded, their draws are re-served next window).
        """
        if self._pos >= STREAM_BLOCK:
            self._refill()
        p = self._pos
        e = min(p + count, STREAM_BLOCK)
        return self._i1[p:e], self._c1[p:e], self._i2[p:e], self._c2[p:e]

    def consume(self, count: int) -> None:
        """Advance past ``count`` attempts served by :meth:`window`."""
        self._pos += count


# ----------------------------------------------------------------------
# shared scalar reference machinery (exact arithmetic, exact order)
# ----------------------------------------------------------------------
def leq(a: Node, b: Node) -> bool:
    """Total order on node ids (ints in practice; repr fallback otherwise)."""
    if isinstance(a, int) and isinstance(b, int):
        return a <= b
    return repr(a) <= repr(b)


def canonical_edge(u: Node, v: Node) -> Edge:
    """The ``(min, max)`` spelling of an undirected edge."""
    return (u, v) if leq(u, v) else (v, u)


def initial_candidates(graph: MultiGraph, protected: set[Edge]) -> list[Edge]:
    """Every edge copy except one protected copy per protected pair.

    A protected pair may be spelled either way round.  Iteration order is
    the graph's ``edges()`` order, which both backends share — candidate
    *indices* drawn from the proposal stream must refer to the same edge
    in either backend.
    """
    remaining = {canonical_edge(u, v): 1 for u, v in protected}
    out: list[Edge] = []
    for u, v in graph.edges():
        key = canonical_edge(u, v)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            continue
        out.append((u, v))
    return out


def can_normalize(norm: float) -> bool:
    """Whether a target's value sum ``norm`` can normalize an L1 distance.

    It must be a finite, positive *normal* float.  A subnormal sum carries
    too few significant bits to scale a distance by, and dividing by the
    smallest ones overflows (``0.29 / 5e-324`` is ``inf``).  A normal sum
    can still be too small for the L1 it divides (``4.59 / 2.5e-308`` is
    ``inf``), which only the initial distance shows, so that distance must
    be finite too (:func:`initial_distance`).  A climb from ``inf`` never
    accepts: a target failing either test is treated like an all-zero
    one, distance 0 and no climb.
    """
    return math.isfinite(norm) and norm >= sys.float_info.min


def initial_distance(
    current: dict[int, float], target: dict[int, float]
) -> tuple[float, float]:
    """``(norm, distance)`` of a climb from ``current`` toward ``target``.

    ``norm`` is the target's value sum and ``distance`` the normalized L1
    distance between the two sparse ``{c̄(k)}`` mappings; both are 0 when
    the sum cannot normalize that distance (see :func:`can_normalize`),
    and a core whose norm is 0 performs no attempt.
    """
    norm = sum(target.values())
    if not can_normalize(norm):
        return 0.0, 0.0
    keys = set(current) | set(target)
    l1 = sum(abs(current.get(k, 0.0) - target.get(k, 0.0)) for k in keys)
    # divided as a python float, which overflows to inf without a warning
    if not math.isfinite(float(l1) / norm):
        return 0.0, 0.0
    return norm, l1 / norm


def _overlay_get(overlay: dict[Edge, int], p: Node, q: Node) -> int:
    return overlay.get(canonical_edge(p, q), 0)


def _apply_edge_delta(
    graph: MultiGraph,
    u: Node,
    v: Node,
    sign: int,
    overlay: dict[Edge, int],
    delta: dict[Node, float],
) -> None:
    """Fold one edge insertion/removal into ``overlay`` and ``delta``.

    Removing (adding) one copy of ``(u, v)`` destroys (creates)
    ``sum_w A'_uw A'_vw`` triangles, where ``A'`` is the overlaid
    adjacency *before* this operation (for removal the edge itself is
    still present, which is correct: the triangles it closes are counted
    through its other two sides).
    """
    if u == v:
        # loops close no triangles under the paper's t_i definition
        overlay[(u, u)] = overlay.get((u, u), 0) + 2 * sign
        return
    adj_u = graph.adjacency_view(u)
    adj_v = graph.adjacency_view(v)
    # iterate over the smaller neighborhood, plus overlay-only neighbors
    if len(adj_u) > len(adj_v):
        u, v = v, u
        adj_u, adj_v = adj_v, adj_u
    common = 0.0
    for w, mult_uw in adj_u.items():
        if w == u or w == v:
            continue
        a_uw = mult_uw + _overlay_get(overlay, u, w)
        if a_uw <= 0:
            continue
        a_vw = adj_v.get(w, 0) + _overlay_get(overlay, v, w)
        if a_vw <= 0:
            continue
        contrib = a_uw * a_vw
        common += contrib
        delta[w] = delta.get(w, 0.0) + sign * contrib
    # overlay may add neighbors of u that the graph does not know yet
    for (p, q), dm in overlay.items():
        if dm <= 0:
            continue
        w = None
        if p == u and q not in adj_u:
            w = q
        elif q == u and p not in adj_u:
            w = p
        if w is None or w in (u, v):
            continue
        a_vw = adj_v.get(w, 0) + _overlay_get(overlay, v, w)
        if a_vw <= 0:
            continue
        contrib = dm * a_vw
        common += contrib
        delta[w] = delta.get(w, 0.0) + sign * contrib
    delta[u] = delta.get(u, 0.0) + sign * common
    delta[v] = delta.get(v, 0.0) + sign * common
    overlay[canonical_edge(u, v)] = _overlay_get(overlay, u, v) + sign


def _overlay_triangle_deltas(
    graph: MultiGraph, x: Node, y: Node, a: Node, b: Node
) -> dict[Node, float]:
    """Per-node triangle deltas of a swap, via a sequential overlay.

    Edges are removed/added one at a time against the *current* overlaid
    adjacency, which handles every multiplicity corner case (shared
    endpoints, adjacent edge pairs) without recounting.  This is the
    reference scorer: :func:`proposal_triangle_deltas` uses it for swaps
    with coincident endpoints, and its closed form for four distinct
    endpoints must agree with it exactly.
    """
    overlay: dict[Edge, int] = {}
    delta: dict[Node, float] = {}
    _apply_edge_delta(graph, x, y, -1, overlay, delta)
    _apply_edge_delta(graph, a, b, -1, overlay, delta)
    _apply_edge_delta(graph, x, b, +1, overlay, delta)
    _apply_edge_delta(graph, a, y, +1, overlay, delta)
    return delta


def _fold_common(
    adj_u: dict[Node, int],
    adj_v: dict[Node, int],
    u: Node,
    v: Node,
    sign: float,
    delta: dict[Node, float],
) -> float:
    """Fold ``sign * A_uw A_vw`` into ``delta[w]`` for every common
    neighbor ``w`` of ``u`` and ``v`` other than ``u``, ``v``; return the
    unsigned sum (iterating the smaller neighborhood, probing the larger).
    """
    if len(adj_u) > len(adj_v):
        adj_u, adj_v = adj_v, adj_u
    common = 0.0
    for w, mult_uw in adj_u.items():
        mult_vw = adj_v.get(w)
        if mult_vw is None or w == u or w == v:
            continue
        contrib = mult_uw * mult_vw
        common += contrib
        delta[w] = delta.get(w, 0.0) + sign * contrib
    return common


def _closed_form_triangle_deltas(
    graph: MultiGraph, x: Node, y: Node, a: Node, b: Node
) -> dict[Node, float]:
    """The overlay's per-node deltas in closed form, for four distinct
    endpoints.

    Each of the four edge operations changes the triangles through the
    common neighbors of its pair.  The removals see the live adjacency;
    the additions see ``(x, y)`` and ``(a, b)`` one copy lower, which
    with distinct endpoints lowers two products of each addition: for
    ``(x, b)``, ``A_xy A_by`` at ``w = y`` loses ``A_by`` and
    ``A_xa A_ab`` at ``w = a`` loses ``A_xa``; for ``(a, y)``,
    ``A_ab A_by`` at ``w = b`` loses ``A_by`` and ``A_xa A_xy`` at
    ``w = x`` loses ``A_xa``.  The values are integer-valued floats,
    equal to the overlay's in any summation order.
    """
    adj = graph.adjacency_view
    adj_x, adj_y, adj_a, adj_b = adj(x), adj(y), adj(a), adj(b)
    delta: dict[Node, float] = {}
    i_xy = _fold_common(adj_x, adj_y, x, y, -1.0, delta)
    i_ab = _fold_common(adj_a, adj_b, a, b, -1.0, delta)
    m_xa = adj_x.get(a, 0)
    m_by = adj_b.get(y, 0)
    c_xb = _fold_common(adj_x, adj_b, x, b, 1.0, delta) - m_by - m_xa
    c_ay = _fold_common(adj_a, adj_y, a, y, 1.0, delta) - m_by - m_xa
    delta[x] = delta.get(x, 0.0) - i_xy + c_xb - m_xa
    delta[y] = delta.get(y, 0.0) - i_xy + c_ay - m_by
    delta[a] = delta.get(a, 0.0) - i_ab + c_ay - m_xa
    delta[b] = delta.get(b, 0.0) - i_ab + c_xb - m_by
    return delta


def proposal_triangle_deltas(
    graph: MultiGraph, x: Node, y: Node, a: Node, b: Node
) -> dict[Node, float]:
    """Per-node triangle deltas of ``remove (x, y), (a, b); add (x, b),
    (a, y)``, the scorer both cores share.

    Swaps with four distinct endpoints, almost all of them, are scored in
    closed form; coincident endpoints (loops, ``y == b``, and ``x == b``
    or ``a == y`` when loops are allowed) by the sequential overlay.  The
    nonzero entries are the overlay's either way.  The reference's
    ``_propose`` calls it for every valid proposal, so the CSR core
    reaches it for corner rows and for window rows an accept made stale.
    """
    if len({x, y, a, b}) < 4:
        return _overlay_triangle_deltas(graph, x, y, a, b)
    return _closed_form_triangle_deltas(graph, x, y, a, b)


# ----------------------------------------------------------------------
# reference rewiring core
# ----------------------------------------------------------------------
#: A scored proposal: ``(x, y, a, b, new_distance, class_delta)`` for
#: ``remove (x, y), (a, b); add (x, b), (a, y)``.
Proposal = tuple[Node, Node, Node, Node, float, dict[int, float]]


@dataclass(frozen=True)
class RewiringReport:
    """Outcome of one rewiring run."""

    attempts: int
    accepted: int
    initial_distance: float
    final_distance: float
    num_candidates: int


class PythonRewiringCore:
    """The reference dict-based core (one proposal at a time).

    Its state is keyed by graph node: degrees, degree-class sizes and
    triangle sums (the per-node counts are folded into the class sums once
    and never needed again), the candidate edge list and the distance.  An
    attempt is :meth:`_propose`, the accept test ``new_distance <
    distance`` and, on accept, :meth:`_accept`.
    """

    def __init__(
        self,
        graph: MultiGraph,
        target_clustering: dict[int, float],
        candidates: list[Edge],
        forbid_loops: bool = True,
        forbid_parallel: bool = True,
        rng: random.Random | int | None = None,
        trace: list | None = None,
    ) -> None:
        self.graph = graph
        self.target = dict(target_clustering)
        self.forbid_loops = forbid_loops
        self.forbid_parallel = forbid_parallel
        self._trace = trace
        self._candidates = candidates
        self._degree, self._class_size, self._class_tri = self._init_state()
        self._norm, self._distance = initial_distance(
            self.clustering_by_degree(), self.target
        )
        self._stream = ProposalStream(rng, len(candidates))

    @property
    def distance(self) -> float:
        """Current normalized L1 distance to the target clustering."""
        return self._distance

    def clustering_by_degree(self) -> dict[int, float]:
        """Current ``{c̄(k)}`` from the incremental per-class state."""
        out: dict[int, float] = {}
        for k, size in self._class_size.items():
            if k < 2:
                out[k] = 0.0
            else:
                out[k] = 2.0 * self._class_tri.get(k, 0.0) / (size * k * (k - 1))
        return out

    def run(self, attempts: int, patience: int | None) -> RewiringReport:
        """The hill climb.

        Parameters
        ----------
        attempts:
            The budget: ``rc x |candidates|`` attempts (the paper's ``R``)
            capped by ``max_attempts``, worked out by
            :class:`~repro.dk.rewiring.RewiringEngine`, which passes 0
            when the climb cannot move (fewer than two candidates, or a
            target whose sum cannot normalize a distance, see
            :func:`can_normalize`).  A norm of 0 overrides it: the sum
            cannot normalize this core's initial distance.
        patience:
            Stop after this many consecutive rejections, ``None`` to run
            the full budget.

        Returns
        -------
        RewiringReport
            The same for either core and a fixed seed, since both consume
            the same blocked proposal stream under the same rules.
        """
        if not self._norm:
            attempts = 0  # the target cannot normalize the distance
        initial = self._distance
        performed, accepted = self._climb(attempts, patience)
        return RewiringReport(
            attempts=performed,
            accepted=accepted,
            initial_distance=initial,
            final_distance=self._distance,
            num_candidates=len(self._candidates),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _init_state(
        self,
    ) -> tuple[dict[Node, int], dict[int, int], dict[int, float]]:
        """Node degrees, degree-class sizes and per-class triangle sums."""
        # the metrics modules import the engine, so this import waits
        from repro.metrics.clustering import triangles_per_node

        degree = self.graph.degrees()
        class_size: dict[int, int] = {}
        for k in degree.values():
            class_size[k] = class_size.get(k, 0) + 1
        class_tri: dict[int, float] = {}
        for node, t in triangles_per_node(self.graph).items():
            k = degree[node]
            class_tri[k] = class_tri.get(k, 0.0) + t
        return degree, class_size, class_tri

    def _climb(self, attempts: int, patience: int | None) -> tuple[int, int]:
        """``(performed, accepted)`` of up to ``attempts`` attempts."""
        accepted = 0
        performed = 0
        stagnant = 0
        draw = self._stream.next
        for _ in range(attempts):
            performed += 1
            i1, c1, i2, c2 = draw()
            proposal = self._propose(i1, c1, i2, c2)
            if proposal is not None and proposal[4] < self._distance:
                self._accept(i1, i2, *proposal)
                accepted += 1
                stagnant = 0
            else:
                stagnant += 1
                if patience is not None and stagnant >= patience:
                    break
        return performed, accepted

    def _propose(self, i1: int, c1: float, i2: int, c2: float) -> Proposal | None:
        """Orient, validate and score one attempt's draws.

        Returns ``None`` when the draws make no valid swap, else the swap
        with its distance and its nonzero triangle changes summed by degree
        class (in discovery order).
        """
        cands = self._candidates
        degree = self._degree
        # orient e1: the chosen side's degree must be matched by e2's side
        if c1 < 0.5:
            x, y = cands[i1]
        else:
            y, x = cands[i1]
        kx = degree[x]

        if i2 == i1:
            return None
        a, b = cands[i2]
        if degree[a] == kx and degree[b] == kx:
            if c2 < 0.5:
                a, b = b, a
        elif degree[b] == kx:
            a, b = b, a
        elif degree[a] != kx:
            return None  # no endpoint of e2 matches deg(x): not a valid swap

        # proposal: remove (x, y), (a, b); add (x, b), (a, y)
        if x == a:
            return None  # identity swap
        if self.forbid_loops and (x == b or a == y):
            return None
        if self.forbid_parallel and (
            self.graph.multiplicity(x, b) > 0 or self.graph.multiplicity(a, y) > 0
        ):
            # adding (x,b) when (x,b) already exists would create a parallel
            # edge; the check is conservative for the x==b/a==y loop cases,
            # which the loop guard above already rejected
            return None

        class_delta: dict[int, float] = {}
        for node, dt in proposal_triangle_deltas(self.graph, x, y, a, b).items():
            if dt:
                k = degree[node]
                class_delta[k] = class_delta.get(k, 0.0) + dt
        return x, y, a, b, self._distance_after(class_delta), class_delta

    def _distance_after(self, class_delta: dict[int, float]) -> float:
        """Distance if the per-class triangle changes ``class_delta`` were
        applied (only the classes they touch re-evaluated)."""
        if not class_delta:
            return self._distance
        # ascending-class iteration: a canonical summation order, whichever
        # order the changes were found in
        dist = self._distance * self._norm
        for k in sorted(class_delta):
            if k < 2:
                continue
            denom = self._class_size[k] * k * (k - 1)
            old_c = 2.0 * self._class_tri.get(k, 0.0) / denom
            new_c = 2.0 * (self._class_tri.get(k, 0.0) + class_delta[k]) / denom
            tgt = self.target.get(k, 0.0)
            dist += abs(new_c - tgt) - abs(old_c - tgt)
        return dist / self._norm

    def _accept(
        self,
        i1: int,
        i2: int,
        x: Node,
        y: Node,
        a: Node,
        b: Node,
        new_distance: float,
        class_delta: dict[int, float],
    ) -> None:
        """Commit a swap drawn from candidate slots ``i1`` and ``i2``: the
        graph, the class sums, the candidate list, the distance, the trace."""
        self.graph.remove_edge(x, y)
        self.graph.remove_edge(a, b)
        self.graph.add_edge(x, b)
        self.graph.add_edge(a, y)
        for k, dS in class_delta.items():
            self._class_tri[k] = self._class_tri.get(k, 0.0) + dS
        self._distance = new_distance
        self._candidates[i1] = (x, b)
        self._candidates[i2] = (a, y)
        if self._trace is not None:
            self._trace.append((x, y, a, b))


# ----------------------------------------------------------------------
# CSR rewiring core: the reference core plus a screen
# ----------------------------------------------------------------------
class _Window:
    """Screening state of one stream window, patched in place per accept.

    Rows are the window's attempts.  ``uv`` holds the screened rows'
    nonzero per-class triangle deltas, ordered by row and then class, with
    ``erow``/``ecls`` the row and class of each entry and
    ``estart[r]:estart[r + 1]`` row ``r``'s slice; ``cs`` is each row's
    screened distance change.  ``static_rows`` lists the rows that pass
    the state-independent checks and ``static_nodes`` their ``x, y, a, b``
    (one row each).  ``pending`` rows — corner cases the screen does not
    score, and rows an accept made stale — go to the reference's
    ``_propose`` from their raw draws; ``interesting`` marks the rows the
    scan stops at.
    """

    __slots__ = (
        "i1", "c1", "i2", "c2", "x", "y", "a", "b",
        "uv", "erow", "ecls", "estart", "cs",
        "static_rows", "static_nodes", "pending", "interesting",
    )


class CSRRewiringCore(PythonRewiringCore):
    """The reference core plus a vectorized screen.

    It keeps the reference's state, its rules (:meth:`_propose`,
    :meth:`_distance_after`) and its commit (:meth:`_accept`), and adds the
    array twins its screen reads, keyed by positional node index: a padded
    CSR adjacency, degrees and degree classes, per-class triangle sums and
    the candidate list as two index arrays.  An accept updates them with
    the reference state.
    """

    def _init_state(
        self,
    ) -> tuple[dict[Node, int], dict[int, int], dict[int, float]]:
        """Build the array state, and the reference's from its arrays."""
        csr = ensure_csr(self.graph)
        self._nodes = csr.node_list
        self._index = csr.index
        n = csr.num_nodes
        self._n = n
        deg = np.asarray(csr.degree_array(), dtype=np.int64)
        self._deg = deg

        # degree classes in first-occurrence (node-insertion) order, the
        # order of the reference's class dicts
        if n:
            uniq, first = np.unique(deg, return_index=True)
            ks = uniq[np.argsort(first, kind="stable")]
        else:
            ks = np.zeros(0, dtype=np.int64)
        self._ks = ks
        K = int(ks.size)
        self._K = K
        if n:
            lut = np.full(int(deg.max()) + 1, -1, dtype=np.int64)
            lut[ks] = np.arange(K, dtype=np.int64)
            self._class_of = lut[deg]
        else:
            self._class_of = np.zeros(0, dtype=np.int64)
        class_size = np.bincount(self._class_of, minlength=K)
        self._class_sums = np.bincount(
            self._class_of, weights=triangle_count_array(csr), minlength=K
        ).astype(np.float64)
        k_list = ks.tolist()
        self._cls_by_degree = {k: i for i, k in enumerate(k_list)}

        ksf = ks.astype(np.float64)
        denom = class_size * ksf * (ksf - 1.0)
        self._k_scored = ks >= 2
        self._denom_safe = np.where(self._k_scored, denom, 1.0)
        self._target_arr = np.array(
            [self.target.get(k, 0.0) for k in k_list], dtype=np.float64
        )

        index = self._index
        cands = self._candidates
        self._cand_u = np.fromiter(
            (index[u] for u, _ in cands), dtype=np.int64, count=len(cands)
        )
        self._cand_v = np.fromiter(
            (index[v] for _, v in cands), dtype=np.int64, count=len(cands)
        )

        # scratch for _patch_window, all clear between calls: the swap's
        # nodes, and the triangle-sum change of each degree class
        self._swap_mark = np.zeros(n, dtype=bool)
        self._class_shift = np.zeros(K, dtype=np.float64)

        self._init_rows(csr)
        return (
            dict(zip(self._nodes, deg.tolist(), strict=True)),
            dict(zip(k_list, class_size.tolist(), strict=True)),
            dict(zip(k_list, self._class_sums.tolist(), strict=True)),
        )

    def _climb(self, attempts: int, patience: int | None) -> tuple[int, int]:
        """The reference's attempt loop, a stream-block window at a time.

        A window is screened once (:meth:`_screen`) and then scanned in
        order, stopping only at its *interesting* rows: potential accepts,
        corner cases and rows an earlier accept made stale.  A potential
        accept's exact class deltas go to the reference's
        :meth:`_distance_after`, the other rows to its :meth:`_propose`.
        After an accepted swap, :meth:`_patch_window` touches only the tail
        rows that swap can change, so the work an accept costs scales with
        those rows, not with the window — the expensive intersection work
        is never repeated.
        """
        accepted = 0
        performed = 0
        stagnant = 0
        stopped = False
        nodes = self._nodes
        ks = self._ks
        # the screened sums are in unnormalized c-bar units (magnitude
        # O(1) regardless of norm), so the slack needs an absolute
        # floor: with a tiny norm, SCREEN_EPS * norm alone would drop
        # below the screen's own float-reordering error and could
        # silently drop an accept the reference makes
        thresh = max(SCREEN_EPS * self._norm, 1e-12)
        while performed < attempts and not stopped:
            want = min(STREAM_BLOCK, attempts - performed)
            win = self._screen(*self._stream.window(want), thresh)
            W = int(win.i1.size)
            interesting = win.interesting
            cursor = 0
            consumed = W
            while True:
                q = W
                if cursor < W:
                    q = cursor + int(interesting[cursor:].argmax())
                    if not interesting[q]:
                        q = W
                gap = q - cursor
                # the reference stops after the *reject* that lifts the
                # stagnation count to `patience`, so at least one of the
                # gap's rejects must be performed even when patience <=
                # stagnant already (the patience=0 edge case)
                if patience is not None and gap >= max(
                    1, patience - stagnant
                ):
                    extra = max(1, patience - stagnant)
                    performed += extra
                    consumed = cursor + extra
                    stopped = True
                    break
                stagnant += gap
                performed += gap
                if q == W:
                    break  # window exhausted; consumed stays W
                i1q, i2q = int(win.i1[q]), int(win.i2[q])
                proposal: Proposal | None
                if win.pending[q]:
                    proposal = self._propose(
                        i1q, float(win.c1[q]), i2q, float(win.c2[q])
                    )
                else:
                    # the entries' class deltas are integer-valued, so they
                    # equal the sums _propose would find
                    lo, hi = win.estart[q], win.estart[q + 1]
                    class_delta = dict(
                        zip(
                            ks[win.ecls[lo:hi]].tolist(),
                            win.uv[lo:hi].tolist(),
                            strict=True,
                        )
                    )
                    proposal = (
                        nodes[win.x[q]], nodes[win.y[q]],
                        nodes[win.a[q]], nodes[win.b[q]],
                        self._distance_after(class_delta), class_delta,
                    )
                performed += 1
                if proposal is not None and proposal[4] < self._distance:
                    self._accept(i1q, i2q, *proposal)
                    accepted += 1
                    stagnant = 0
                    cursor = q + 1
                    if performed >= attempts or cursor >= W:
                        consumed = cursor
                        break
                    self._patch_window(
                        win, q, proposal[:4], (i1q, i2q), proposal[5], thresh
                    )
                else:
                    stagnant += 1
                    if patience is not None and stagnant >= patience:
                        consumed = q + 1
                        stopped = True
                        break
                    cursor = q + 1
            self._stream.consume(consumed)
        return performed, accepted

    def _accept(
        self,
        i1: int,
        i2: int,
        x: Node,
        y: Node,
        a: Node,
        b: Node,
        new_distance: float,
        class_delta: dict[int, float],
    ) -> None:
        """The reference's commit, then the rows, the class-sum array and
        the candidate arrays."""
        super()._accept(i1, i2, x, y, a, b, new_distance, class_delta)
        index = self._index
        px, py, pa, pb = index[x], index[y], index[a], index[b]
        if len({px, py, pa, pb}) == 4:
            # every node loses one neighbor copy and gains one: fused pass
            self._row_replace(px, py, pb)
            self._row_replace(py, px, pa)
            self._row_replace(pa, pb, py)
            self._row_replace(pb, pa, px)
        else:
            for u, v, dm in ((px, py, -1), (pa, pb, -1), (px, pb, +1), (pa, py, +1)):
                if u == v:
                    self._row_update(u, u, 2 * dm)
                else:
                    self._row_update(u, v, dm)
                    self._row_update(v, u, dm)
        for k, dS in class_delta.items():
            self._class_sums[self._cls_by_degree[k]] += dS
        self._cand_u[i1] = px
        self._cand_v[i1] = pb
        self._cand_u[i2] = pa
        self._cand_v[i2] = py

    # ------------------------------------------------------------------
    # array adjacency (padded CSR rows, sorted by neighbor index)
    # ------------------------------------------------------------------
    def _init_rows(self, csr) -> None:
        n = self._n
        adj = csr.adjacency_matrix()  # canonical: sorted, duplicate-summed
        cap_ptr = np.asarray(csr.indptr, dtype=np.int64)
        slots = int(cap_ptr[-1])
        self._cap_ptr = cap_ptr
        self._rlen = np.diff(adj.indptr).astype(np.int64)
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(cap_ptr))
        # a row's used prefix holds keys owner*(n+1)+neighbor ascending;
        # unused capacity holds the owner's sentinel owner*(n+1)+n, keeping
        # the whole key array globally sorted for one-shot searchsorted
        # probes (the neighbor id is recovered as key - owner*(n+1))
        keys = owner * (n + 1) + n
        mult = np.zeros(slots, dtype=np.int64)
        if slots:
            total = int(adj.indptr[-1])
            offs = np.arange(total, dtype=np.int64) - np.repeat(
                adj.indptr[:-1].astype(np.int64), self._rlen
            )
            dest = np.repeat(cap_ptr[:-1], self._rlen) + offs
            keys[dest] = (
                owner[dest] * (n + 1) + adj.indices.astype(np.int64)
            )
            mult[dest] = np.rint(adj.data).astype(np.int64)
        self._mult = mult
        self._keys = keys
        # byte-map existence prefilter: most adjacency probes miss (common
        # neighbors are rare), and a single cache-friendly byte load is an
        # order of magnitude cheaper than a binary search over the key
        # array.  Hash collisions only cost a redundant search; deleted
        # keys are left set (rare, and merely weaken the filter).
        self._hmask = (1 << 22) - 1
        exists = np.zeros(self._hmask + 1, dtype=np.uint8)
        if slots:
            exists[keys[dest] & self._hmask] = 1
        self._exists = exists

    def _mult_many(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized multiplicity lookup ``A[u][v]`` (0 when absent)."""
        keys = self._keys
        if keys.size == 0:
            return np.zeros(u.shape, dtype=np.int64)
        q = u * (self._n + 1) + v
        out = np.zeros(q.shape, dtype=np.int64)
        cand = np.flatnonzero(self._exists[q & self._hmask])
        if cand.size:
            qc = q[cand]
            pos = np.searchsorted(keys, qc)
            np.minimum(pos, keys.size - 1, out=pos)
            out[cand] = np.where(keys[pos] == qc, self._mult[pos], 0)
        return out

    def _row_update(self, u: int, v: int, d: int) -> None:
        """Apply ``A[u][v] += d``, keeping the row sorted and packed."""
        s = int(self._cap_ptr[u])
        e = s + int(self._rlen[u])
        mult, keys = self._mult, self._keys
        kv = u * (self._n + 1) + v
        p = s + int(np.searchsorted(keys[s:e], kv))
        if p < e and keys[p] == kv:
            nm = int(mult[p]) + d
            if nm == 0:
                mult[p : e - 1] = mult[p + 1 : e]
                keys[p : e - 1] = keys[p + 1 : e]
                mult[e - 1] = 0
                keys[e - 1] = u * (self._n + 1) + self._n
                self._rlen[u] -= 1
            else:
                mult[p] = nm
        else:
            mult[p + 1 : e + 1] = mult[p:e]
            keys[p + 1 : e + 1] = keys[p:e]
            mult[p] = d
            keys[p] = kv
            self._exists[kv & self._hmask] = 1
            self._rlen[u] += 1

    def _row_replace(self, u: int, v_old: int, v_new: int) -> None:
        """Apply ``A[u][v_old] -= 1; A[u][v_new] += 1`` in one row pass.

        The accepted swap gives every affected node exactly this
        remove-one/add-one pattern (for four distinct endpoints), and the
        common case — old multiplicity 1, new neighbor absent — is a
        single rotation of the span between the two positions instead of
        two shifts of the row tail.
        """
        s = int(self._cap_ptr[u])
        e = s + int(self._rlen[u])
        mult, keys = self._mult, self._keys
        base = u * (self._n + 1)
        ko = base + v_old
        kn = base + v_new
        seg = keys[s:e]
        po = s + int(np.searchsorted(seg, ko))
        pn = s + int(np.searchsorted(seg, kn))
        has_new = pn < e and keys[pn] == kn
        self._exists[kn & self._hmask] = 1
        if int(mult[po]) > 1:
            mult[po] -= 1
            if has_new:
                mult[pn] += 1
            else:
                mult[pn + 1 : e + 1] = mult[pn:e]
                keys[pn + 1 : e + 1] = keys[pn:e]
                mult[pn] = 1
                keys[pn] = kn
                self._rlen[u] += 1
        elif has_new:
            mult[pn] += 1
            mult[po : e - 1] = mult[po + 1 : e]
            keys[po : e - 1] = keys[po + 1 : e]
            mult[e - 1] = 0
            keys[e - 1] = base + self._n
            self._rlen[u] -= 1
        elif po < pn:
            # delete at po, insert before pn: rotate (po, pn) left
            mult[po : pn - 1] = mult[po + 1 : pn]
            keys[po : pn - 1] = keys[po + 1 : pn]
            mult[pn - 1] = 1
            keys[pn - 1] = kn
        else:
            # insert at pn, delete at po: rotate [pn, po) right
            mult[pn + 1 : po + 1] = mult[pn:po]
            keys[pn + 1 : po + 1] = keys[pn:po]
            mult[pn] = 1
            keys[pn] = kn

    # ------------------------------------------------------------------
    # vectorized window screening
    # ------------------------------------------------------------------
    def _screen(self, i1, c1, i2, c2, thresh: float) -> _Window:
        """Orient, validate and score one window of attempt draws.

        Valid non-corner rows get their sparse per-class deltas from one
        batched :meth:`_derive_sparse` call and a screened distance change
        ``cs``; a row is interesting when ``cs`` could beat the current
        distance (it has entries and ``cs < thresh``) or it is a corner
        case, which starts out pending for the reference's ``_propose``.
        """
        K = self._K
        W = int(i1.size)
        x, y, a, b, static, valid, corner = self._orient_and_validate(
            i1, c1, i2, c2
        )
        sidx = np.flatnonzero(valid & ~corner)
        if sidx.size:
            uk, uv = self._derive_sparse(x[sidx], y[sidx], a[sidx], b[sidx], sidx)
        else:
            uk = np.zeros(0, dtype=np.int64)
            uv = np.zeros(0, dtype=np.float64)
        win = _Window()
        win.i1, win.c1, win.i2, win.c2 = i1, c1, i2, c2
        win.x, win.y, win.a, win.b = x, y, a, b
        win.uv = uv
        win.erow = uk // K
        win.ecls = uk % K
        counts = np.bincount(win.erow, minlength=W)
        win.estart = np.zeros(W + 1, dtype=np.int64)
        np.cumsum(counts, out=win.estart[1:])
        corr = self._entry_corr(win.ecls, uv, self._class_sums[win.ecls])
        win.cs = np.bincount(win.erow, weights=corr, minlength=W)
        rows = np.flatnonzero(static)
        win.static_rows = rows
        win.static_nodes = np.vstack((x[rows], y[rows], a[rows], b[rows]))
        win.pending = corner
        win.interesting = ((counts > 0) & (win.cs < thresh)) | corner
        return win

    def _pair_probe(
        self, U: np.ndarray, V: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``I[p] = sum_w A_uw A_vw`` plus the nonzero summand triples.

        For each pair the shorter sorted row is probed into the global
        multiplicity key index; the summand excludes ``w in {u, v}``,
        matching the reference scorer's endpoint skip.  Returns ``I`` and
        the surviving ``(pair, class-of-w, A_uw * A_vw)`` triples.
        """
        P = int(U.size)
        rl = self._rlen
        pick_u = rl[U] <= rl[V]
        probe = np.where(pick_u, U, V)
        other = np.where(pick_u, V, U)
        lens = rl[probe]
        total = int(lens.sum())
        empty = np.zeros(0, dtype=np.int64)
        if total == 0:
            return np.zeros(P, dtype=np.float64), empty, empty, empty
        pid = np.repeat(np.arange(P, dtype=np.int64), lens)
        csum = np.concatenate(([0], np.cumsum(lens)[:-1]))
        offs = np.arange(total, dtype=np.int64) - np.repeat(csum, lens)
        flat = np.repeat(self._cap_ptr[probe], lens) + offs
        w = self._keys[flat] - probe[pid] * (self._n + 1)
        q = other[pid] * (self._n + 1) + w
        cand = np.flatnonzero(self._exists[q & self._hmask])
        if cand.size == 0:
            return np.zeros(P, dtype=np.float64), empty, empty, empty
        q = q[cand]
        w = w[cand]
        pid = pid[cand]
        mw = self._mult[flat[cand]]
        pos = np.searchsorted(self._keys, q)
        np.minimum(pos, self._keys.size - 1, out=pos)
        keep = (self._keys[pos] == q) & (w != U[pid]) & (w != V[pid])
        pid = pid[keep]
        contrib = mw[keep] * self._mult[pos[keep]]
        common = np.bincount(pid, weights=contrib, minlength=P)
        return common, pid, self._class_of[w[keep]], contrib

    def _orient_and_validate(self, i1, c1, i2, c2):
        """Oriented endpoints plus validity/corner masks for attempt draws.

        Mirrors the reference attempt's sequential checks: orientation of
        the first edge by ``c1``, degree-match orientation of the second
        (tie broken by ``c2`` when both endpoints match), identity/loop
        rejection, and the parallel-edge multiplicity test.  ``static``
        holds the checks that read no graph state — degree match,
        ``i1 != i2``, ``x != a`` and the loop rule — so a row they reject
        stays rejected until one of its candidate slots is rewritten;
        ``valid`` adds the parallel-edge test.  ``corner`` flags valid
        proposals with coincident endpoints, whose triangle deltas
        interact across the four edge operations — those go to the
        reference's ``_propose`` instead of the batched intersections.
        """
        cu, cv = self._cand_u, self._cand_v
        deg = self._deg
        e1u = cu[i1]
        e1v = cv[i1]
        take = c1 < 0.5
        x = np.where(take, e1u, e1v)
        y = np.where(take, e1v, e1u)
        dx = deg[x]
        a0 = cu[i2]
        b0 = cv[i2]
        da = deg[a0]
        db = deg[b0]
        both = (da == dx) & (db == dx)
        swap = (both & (c2 < 0.5)) | (~both & (db == dx))
        a = np.where(swap, b0, a0)
        b = np.where(swap, a0, b0)
        static = (both | (da == dx) | (db == dx)) & (i2 != i1) & (x != a)
        if self.forbid_loops:
            static &= (x != b) & (a != y)
        valid = static.copy()
        if self.forbid_parallel:
            can = np.flatnonzero(valid)
            if can.size:
                bad = (self._mult_many(x[can], b[can]) > 0) | (
                    self._mult_many(a[can], y[can]) > 0
                )
                valid[can[bad]] = False
        corner = valid & ((x == y) | (a == b) | (y == b))
        if not self.forbid_loops:
            corner |= valid & ((x == b) | (a == y))
        return x, y, a, b, static, valid, corner

    def _derive_sparse(
        self, X, Y, A, B, pid_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-degree-class triangle deltas of ``remove (x,y),(a,b); add
        (x,b),(a,y)`` for a batch of proposals with four distinct nodes.

        The four naive static intersections are corrected for the overlay
        interactions between the edge operations, which for distinct
        endpoints reduce to the two multiplicities ``A_xa`` and ``A_by``
        (each removed edge loses one copy before the additions are
        counted).  All contributions are integer-valued in float64, so the
        sums are exact.

        Returns the deltas as a sparse ``(key, value)`` pair with
        ``key = window_position * K + class`` (``pid_out`` maps batch rows
        to window positions), keys ascending, exact zeros dropped — a
        proposal touches a dozen classes, not all of them, so the sparse
        form is what keeps batch scoring O(touched) instead of O(K).
        """
        Vn = int(X.size)
        K = self._K
        U_ = np.concatenate([X, A, X, A])
        V_ = np.concatenate([Y, B, B, Y])
        common, ppid, pcls, pcontrib = self._pair_probe(U_, V_)
        I_xy, I_ab = common[:Vn], common[Vn : 2 * Vn]
        I_xb, I_ay = common[2 * Vn : 3 * Vn], common[3 * Vn :]
        m_xa = self._mult_many(X, A).astype(np.float64)
        m_by = self._mult_many(B, Y).astype(np.float64)
        c3 = I_xb - m_by - m_xa  # overlay-corrected common(x, b)
        c4 = I_ay - m_xa - m_by  # overlay-corrected common(a, y)
        cls = self._class_of
        keys = np.concatenate(
            [
                pid_out[ppid % Vn] * K + pcls,
                pid_out * K + cls[X],
                pid_out * K + cls[Y],
                pid_out * K + cls[A],
                pid_out * K + cls[B],
            ]
        )
        vals = np.concatenate(
            [
                np.where(ppid < 2 * Vn, -pcontrib, pcontrib),
                -I_xy + c3 - m_xa,
                -I_xy + c4 - m_by,
                -I_ab + c4 - m_xa,
                -I_ab + c3 - m_by,
            ]
        )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        if keys.size == 0:
            return keys, vals
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(vals, starts)
        uk = keys[starts]
        keep = sums != 0.0
        return uk[keep], sums[keep]

    def _entry_corr(
        self, cls: np.ndarray, vals: np.ndarray, S: np.ndarray
    ) -> np.ndarray:
        """Screened correction ``|c'_k - t_k| - |c_k - t_k|`` per entry,
        given the triangle sum ``S`` of each entry's class.

        A proposal can only be accepted when its entries sum negative; the
        scan treats anything below ``SCREEN_EPS * norm`` as a potential
        accept and confirms it with the exact ascending-class evaluation.
        """
        den = self._denom_safe[cls]
        t = self._target_arr[cls]
        corr = np.abs(2.0 * (S + vals) / den - t) - np.abs(2.0 * S / den - t)
        corr[~self._k_scored[cls]] = 0.0
        return corr

    def _patch_window(
        self,
        win: _Window,
        q: int,
        swap: tuple[Node, ...],
        slots: tuple[int, int],
        class_delta: dict[int, float],
        thresh: float,
    ) -> None:
        """Update the window after the swap accepted at row ``q``.

        A tail row turns ``pending`` — replayed from its draws by the
        reference's :meth:`_propose` if the scan reaches it — when it draws
        one of the two rewritten candidate ``slots``, or when it passed
        the state-independent checks and shares a node with ``swap``
        (found by marking the four nodes in a node-sized array).  A row
        those checks rejected stays rejected: degrees never change and its
        endpoints move only with its slots.  Every other row keeps its
        exact delta entries; only the entries in a degree class whose
        triangle sum the swap moved get their screened correction redone,
        and ``interesting`` is updated at the rows touched.
        """
        t0 = q + 1
        s1, s2 = slots
        it1, it2 = win.i1[t0:], win.i2[t0:]
        moved = (it1 == s1) | (it1 == s2) | (it2 == s1) | (it2 == s2)
        stale = t0 + np.flatnonzero(moved)
        j = int(np.searchsorted(win.static_rows, t0))
        mark = self._swap_mark
        swapped = [self._index[v] for v in swap]
        mark[swapped] = True
        near = mark[win.static_nodes[:, j:]].any(axis=0)
        mark[swapped] = False
        for rows in (stale, win.static_rows[j:][near]):
            win.pending[rows] = True
            win.interesting[rows] = True

        changed, shifts = [], []
        for k, dS in class_delta.items():
            if k >= 2 and dS:
                changed.append(self._cls_by_degree[k])
                shifts.append(dS)
        if not changed:
            return
        shift = self._class_shift
        shift[changed] = shifts
        e0 = int(win.estart[t0])
        ent = e0 + np.flatnonzero(shift[win.ecls[e0:]])
        ent = ent[~win.pending[win.erow[ent]]]
        cls = win.ecls[ent]
        rows = win.erow[ent]
        v = win.uv[ent]
        new = self._class_sums[cls]
        # the triangle sums are integer-valued, so the pre-swap sum is exact
        old = new - shift[cls]
        shift[changed] = 0.0
        np.add.at(
            win.cs,
            rows,
            self._entry_corr(cls, v, new) - self._entry_corr(cls, v, old),
        )
        win.interesting[rows] = win.cs[rows] < thresh
