"""Synthetic graph generators.

These are the substrate for the dataset substitution documented in
:mod:`repro.graph.datasets`: the paper evaluates on seven public social graphs;
this environment has no network access, so we synthesize graphs with the
same qualitative shape (heavy-tailed degrees, high clustering, a single
giant component) at laptop scale.

All generators are implemented from scratch on :class:`MultiGraph` (the test
suite cross-checks degree sequences and edge counts against networkx where a
counterpart exists) and are deterministic given a seed.
"""

from __future__ import annotations

import random

from repro.errors import GraphError
from repro.graph.multigraph import MultiGraph
from repro.utils.rng import ensure_rng


def empty_graph(n: int) -> MultiGraph:
    """Graph with nodes ``0..n-1`` and no edges."""
    g = MultiGraph()
    for u in range(n):
        g.add_node(u)
    return g


def complete_graph(n: int) -> MultiGraph:
    """Simple complete graph on ``n`` nodes."""
    g = empty_graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def cycle_graph(n: int) -> MultiGraph:
    """Cycle on ``n`` nodes (``n >= 3``)."""
    if n < 3:
        raise GraphError("cycle_graph needs n >= 3")
    g = empty_graph(n)
    for u in range(n):
        g.add_edge(u, (u + 1) % n)
    return g


def star_graph(n_leaves: int) -> MultiGraph:
    """Star with hub ``0`` and ``n_leaves`` leaves."""
    g = empty_graph(n_leaves + 1)
    for v in range(1, n_leaves + 1):
        g.add_edge(0, v)
    return g


def gnm_random_graph(
    n: int, m: int, rng: random.Random | int | None = None
) -> MultiGraph:
    """Erdős–Rényi G(n, m): ``m`` distinct non-loop edges chosen uniformly."""
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise GraphError(f"G(n={n}, m={m}) infeasible: max {max_m} simple edges")
    r = ensure_rng(rng)
    g = empty_graph(n)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = r.randrange(n)
        v = r.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in chosen:
            continue
        chosen.add(key)
        g.add_edge(*key)
    return g


def barabasi_albert_graph(
    n: int, m: int, rng: random.Random | int | None = None
) -> MultiGraph:
    """Barabási–Albert preferential attachment: each new node brings ``m``
    edges to existing nodes chosen proportionally to degree.

    Uses the standard repeated-nodes list so attachment is exactly
    degree-proportional; duplicate targets within one arrival are re-drawn,
    so the result is simple.
    """
    if m < 1 or m >= n:
        raise GraphError(f"BA needs 1 <= m < n, got m={m}, n={n}")
    r = ensure_rng(rng)
    g = empty_graph(n)
    # seed: star over the first m+1 nodes so every early node has degree >= 1
    repeated: list[int] = []
    for v in range(1, m + 1):
        g.add_edge(0, v)
        repeated.extend((0, v))
    for u in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(r.choice(repeated))
        for v in targets:
            g.add_edge(u, v)
            repeated.extend((u, v))
    return g


def powerlaw_cluster_graph(
    n: int, m: int, p_triad: float, rng: random.Random | int | None = None
) -> MultiGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like BA, but after each preferential attachment step, with probability
    ``p_triad`` the next edge instead closes a triangle by linking to a
    random neighbor of the previously chosen target.  Produces the
    heavy-tail + high-clustering combination typical of social graphs,
    which is exactly the regime the paper's method is designed for.
    """
    if m < 1 or m >= n:
        raise GraphError(f"powerlaw_cluster needs 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= p_triad <= 1.0:
        raise GraphError(f"p_triad must be in [0, 1], got {p_triad}")
    r = ensure_rng(rng)
    g = empty_graph(n)
    repeated: list[int] = []
    for v in range(1, m + 1):
        g.add_edge(0, v)
        repeated.extend((0, v))
    for u in range(m + 1, n):
        target = r.choice(repeated)
        g.add_edge(u, target)
        repeated.extend((u, target))
        added = 1
        prev = target
        while added < m:
            close_triangle = r.random() < p_triad
            candidate: int | None = None
            if close_triangle:
                nbrs = [w for w in g.neighbors(prev) if w != u and not g.has_edge(u, w)]
                if nbrs:
                    candidate = r.choice(nbrs)
            if candidate is None:
                # fall back to preferential attachment, avoiding duplicates
                for _ in range(16):
                    cand = r.choice(repeated)
                    if cand != u and not g.has_edge(u, cand):
                        candidate = cand
                        break
            if candidate is None:
                break  # dense corner case: no fresh target available
            g.add_edge(u, candidate)
            repeated.extend((u, candidate))
            prev = candidate
            added += 1
    return g


def watts_strogatz_graph(
    n: int, k: int, p_rewire: float, rng: random.Random | int | None = None
) -> MultiGraph:
    """Watts–Strogatz small-world graph (ring of ``k`` nearest neighbors,
    each edge rewired with probability ``p_rewire``)."""
    if k % 2 != 0 or k >= n:
        raise GraphError(f"WS needs even k < n, got k={k}, n={n}")
    r = ensure_rng(rng)
    g = empty_graph(n)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            g.add_edge(u, (u + offset) % n)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if r.random() < p_rewire and g.has_edge(u, v):
                w = r.randrange(n)
                tries = 0
                while (w == u or g.has_edge(u, w)) and tries < 64:
                    w = r.randrange(n)
                    tries += 1
                if w != u and not g.has_edge(u, w):
                    g.remove_edge(u, v)
                    g.add_edge(u, w)
    return g


def powerlaw_degree_sequence(
    n: int,
    gamma: float,
    k_min: int,
    k_max: int,
    rng: random.Random | int | None = None,
) -> list[int]:
    """Sample ``n`` degrees from a discrete power law ``P(k) ~ k^-gamma`` on
    ``[k_min, k_max]``, with the total adjusted to be even (required by the
    configuration model)."""
    if k_min < 1 or k_max < k_min:
        raise GraphError(f"need 1 <= k_min <= k_max, got {k_min}, {k_max}")
    r = ensure_rng(rng)
    weights = [k ** (-gamma) for k in range(k_min, k_max + 1)]
    total_w = sum(weights)
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total_w
        cumulative.append(acc)
    degrees: list[int] = []
    for _ in range(n):
        x = r.random()
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        degrees.append(k_min + lo)
    if sum(degrees) % 2 == 1:
        degrees[r.randrange(n)] += 1
    return degrees


def configuration_model(
    degrees: list[int], rng: random.Random | int | None = None
) -> MultiGraph:
    """Configuration-model multigraph realizing ``degrees`` exactly.

    Stub matching may produce parallels and loops; callers wanting a simple
    graph should follow with :func:`repro.graph.simplify.simplified` (which
    perturbs the degree sequence slightly, as usual for this model).
    """
    if sum(degrees) % 2 != 0:
        raise GraphError("degree sequence sum must be even")
    r = ensure_rng(rng)
    stubs: list[int] = []
    for node, k in enumerate(degrees):
        if k < 0:
            raise GraphError(f"negative degree {k} at node {node}")
        stubs.extend([node] * k)
    r.shuffle(stubs)
    g = empty_graph(len(degrees))
    for i in range(0, len(stubs), 2):
        g.add_edge(stubs[i], stubs[i + 1])
    return g


def community_social_graph(
    n: int,
    n_communities: int,
    m_intra: int,
    p_triad: float,
    inter_fraction: float,
    rng: random.Random | int | None = None,
) -> MultiGraph:
    """LFR-flavored community graph: Holme–Kim communities + random bridges.

    Community sizes follow a geometric-ish split (larger first), each
    community is an independent Holme–Kim graph (heavy tail + clustering),
    and ``inter_fraction * m`` extra edges bridge random community pairs,
    preferring high-degree endpoints (hubs carry the inter-community
    traffic, as observed in real social graphs).
    """
    if n_communities < 1:
        raise GraphError("need at least one community")
    r = ensure_rng(rng)
    # geometric community sizes normalized to n, each at least m_intra + 1
    raw = [0.6 ** i for i in range(n_communities)]
    total = sum(raw)
    sizes = [max(m_intra + 2, int(round(n * w / total))) for w in raw]
    # trim/extend the last community so sizes sum to n
    drift = sum(sizes) - n
    sizes[0] = max(m_intra + 2, sizes[0] - drift)

    g = MultiGraph()
    offset = 0
    membership: list[tuple[int, int]] = []  # (start, size) per community
    for size in sizes:
        sub = powerlaw_cluster_graph(size, m_intra, p_triad, rng=r)
        for u in sub.nodes():
            g.add_node(offset + u)
        for u, v in sub.edges():
            g.add_edge(offset + u, offset + v)
        membership.append((offset, size))
        offset += size

    if len(membership) > 1:
        n_bridges = max(1, int(inter_fraction * g.num_edges))
        degrees = g.degrees()
        for _ in range(n_bridges):
            ca, cb = r.sample(range(len(membership)), 2)
            u = _degree_biased_pick(membership[ca], degrees, r)
            v = _degree_biased_pick(membership[cb], degrees, r)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
                degrees[u] += 1
                degrees[v] += 1
    return g


def _degree_biased_pick(
    span: tuple[int, int], degrees: dict, rng: random.Random
) -> int:
    """Pick a node from ``span = (start, size)`` with probability roughly
    proportional to degree (two-candidate tournament keeps it O(1))."""
    start, size = span
    a = start + rng.randrange(size)
    b = start + rng.randrange(size)
    return a if degrees.get(a, 0) >= degrees.get(b, 0) else b


def planted_partition_graph(
    n: int,
    n_communities: int,
    p_in: float,
    p_out: float,
    rng: random.Random | int | None = None,
) -> MultiGraph:
    """Planted-partition stochastic block model (equal-size blocks).

    Used by tests and examples as a structured-but-not-heavy-tailed contrast
    to the social-graph generators.
    """
    if not (0 <= p_out <= p_in <= 1):
        raise GraphError("need 0 <= p_out <= p_in <= 1")
    r = ensure_rng(rng)
    g = empty_graph(n)
    block = [u * n_communities // n for u in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if block[u] == block[v] else p_out
            if r.random() < p:
                g.add_edge(u, v)
    return g


def expected_powerlaw_mean_degree(gamma: float, k_min: int, k_max: int) -> float:
    """Mean of the discrete power law used by :func:`powerlaw_degree_sequence`.

    Handy for sizing dataset stand-ins to a target average degree.
    """
    num = sum(k * k ** (-gamma) for k in range(k_min, k_max + 1))
    den = sum(k ** (-gamma) for k in range(k_min, k_max + 1))
    return num / den


def relabel_shuffled(
    graph: MultiGraph, rng: random.Random | int | None = None
) -> MultiGraph:
    """Copy of ``graph`` with node ids randomly permuted.

    Generators above produce ids correlated with age/degree (BA node 0 is a
    hub); shuffling removes any chance of id-based artifacts in sampling
    experiments that seed from node ranges.
    """
    r = ensure_rng(rng)
    ids = list(graph.nodes())
    shuffled = ids[:]
    r.shuffle(shuffled)
    mapping = dict(zip(ids, shuffled, strict=True))
    out = MultiGraph()
    for u in ids:
        out.add_node(mapping[u])
    for u, v in graph.edges():
        out.add_edge(mapping[u], mapping[v])
    return out
