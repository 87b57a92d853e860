"""Degree-preserving simplification of generated multigraphs.

Stub matching (Algorithm 5) may leave parallel edges and self-loops — legal
under the paper's graph model, but real social graphs are simple, and the
dK literature (Stanton–Pinar, Gjoka et al.) removes the defects with
degree-preserving double-edge swaps.  Two modes:

* ``strict_jdm=True`` (default): only *equal-degree* swaps (the Algorithm 6
  move), which preserve the entire joint degree matrix — a cleaned graph
  still realizes its 2K targets exactly.  Multi-edges concentrate between
  hubs whose degrees are rare, so some defects may be unswappable in this
  mode; the report carries the residual count.
* ``strict_jdm=False``: any double-edge swap (preserves every node's
  degree, i.e. the 1K targets, but may shift JDM cells).  Almost always
  reaches a fully simple graph.

A swap is applied only when it strictly reduces the number of defective
edge slots and creates no new defect, so the defect count is a decreasing
potential; rounds repeat until a full pass makes no progress.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.rewiring_kernels import canonical_edge
from repro.graph.multigraph import MultiGraph, Node
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class CleanupReport:
    """Outcome of one simplification pass."""

    initial_defects: int
    remaining_defects: int
    swaps: int
    attempts: int

    @property
    def is_simple(self) -> bool:
        """True when every parallel edge and loop was eliminated."""
        return self.remaining_defects == 0


def count_defects(graph: MultiGraph) -> int:
    """Defective edge slots: loops plus excess parallel copies."""
    defects = 0
    seen: set[Node] = set()
    for u in graph.nodes():
        seen.add(u)
        for v, a in graph.adjacency_view(u).items():
            if v == u:
                defects += a // 2  # each loop is one defect
            elif v not in seen and a > 1:
                defects += a - 1
    return defects


def simplify_preserving_jdm(
    graph: MultiGraph,
    rng: random.Random | int | None = None,
    strict_jdm: bool = True,
    partner_samples: int = 200,
    protected_edges: set[tuple[Node, Node]] | None = None,
) -> CleanupReport:
    """Remove parallels/loops in place via double-edge swaps.

    For each defective copy ``(u, v)``, sample partner edges ``(a, b)`` and
    replace the pair with ``(u, b), (a, v)`` when the replacement creates
    no loop or parallel edge — and, in strict mode, when ``deg(a) ==
    deg(u)`` for one of the defect's orientations (the JDM-preserving
    condition).  See the module docstring for the two modes.

    ``protected_edges`` (pairs, spelled either way round) are never consumed
    as swap partners — the restoration pipeline passes the sampled
    subgraph's edges here so simplification cannot disturb the observed
    structure (defective copies themselves are never subgraph edges: the
    subgraph is simple and its pairs keep one protected copy).
    """
    r = ensure_rng(rng)
    initial = count_defects(graph)
    if initial == 0:
        return CleanupReport(0, 0, 0, 0)

    protected = {canonical_edge(u, v) for u, v in protected_edges or ()}
    degrees = graph.degrees()
    swaps = 0
    attempts = 0
    while True:
        defects = _all_defects(graph)
        if not defects:
            break
        progressed = False
        for u, v in defects:
            if graph.multiplicity(u, v) < 2:
                continue  # fixed by an earlier swap of the same round
            done, tried = _fix_one(
                graph, u, v, degrees, r, strict_jdm, partner_samples, protected
            )
            attempts += tried
            if done:
                swaps += 1
                progressed = True
        if not progressed:
            break
    return CleanupReport(initial, count_defects(graph), swaps, attempts)


def _all_defects(graph: MultiGraph) -> list[tuple[Node, Node]]:
    """One entry per defective pair (loops as (u, u))."""
    out: list[tuple[Node, Node]] = []
    seen: set[Node] = set()
    for u in graph.nodes():
        seen.add(u)
        for v, a in graph.adjacency_view(u).items():
            if v == u and a >= 2:
                out.append((u, u))
            elif v not in seen and a > 1:
                out.append((u, v))
    return out


def _fix_one(
    graph: MultiGraph,
    u: Node,
    v: Node,
    degrees: dict[Node, int],
    rng: random.Random,
    strict_jdm: bool,
    partner_samples: int,
    protected: set[tuple[Node, Node]],
) -> tuple[bool, int]:
    """Try to swap one copy of defect ``(u, v)`` away; returns (done, tried)."""
    pool = list(graph.edges())
    tried = 0
    for _ in range(partner_samples):
        tried += 1
        a, b = pool[rng.randrange(len(pool))]
        if canonical_edge(a, b) in protected and graph.multiplicity(a, b) <= 1:
            continue  # the sole copy of a protected pair must survive
        if rng.random() < 0.5:
            a, b = b, a
        # try both defect orientations: pivot on u, then on v
        for x, y in ((u, v), (v, u)):
            if strict_jdm and degrees[a] != degrees[x]:
                if degrees[b] == degrees[x]:
                    a, b = b, a
                else:
                    continue
            if _swap_is_clean(graph, x, y, a, b):
                graph.remove_edge(x, y)
                graph.remove_edge(a, b)
                graph.add_edge(x, b)
                graph.add_edge(a, y)
                return True, tried
    return False, tried


def _swap_is_clean(
    graph: MultiGraph, u: Node, v: Node, a: Node, b: Node
) -> bool:
    """True when replacing (u,v),(a,b) with (u,b),(a,v) strictly reduces
    defects: the new edges are neither loops nor duplicates of surviving
    edges, and the partner is itself clean to consume."""
    if a == b:
        return False  # partner loop: swapping two defects cannot reduce count
    if (a, b) == (u, v) or (b, a) == (u, v):
        return False
    if u == b or a == v:
        return False  # would create a loop
    # survivors of (u,b) after removing one copy each of (u,v) and (a,b)
    mult_ub = graph.multiplicity(u, b)
    if v == b:
        mult_ub -= 1  # (u,v) is a copy of (u,b)
    if a == u:
        mult_ub -= 1  # (a,b) is a copy of (u,b)
    if mult_ub > 0:
        return False
    mult_av = graph.multiplicity(a, v)
    if u == a:
        mult_av -= 1  # (u,v) is a copy of (a,v)
    if b == v:
        mult_av -= 1  # (a,b) is a copy of (a,v)
    if mult_av > 0:
        return False
    return True
