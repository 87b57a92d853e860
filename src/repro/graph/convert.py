"""Bridges to and from :mod:`networkx`.

Used by the test suite to validate our property implementations against an
independent reference, and offered as a convenience for downstream users who
want to hand restored graphs to the wider Python graph ecosystem.

networkx is not a dependency of the package: it is imported only when a
conversion runs, so ``import repro`` works without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graph.multigraph import MultiGraph

if TYPE_CHECKING:
    import networkx as nx


def to_networkx(graph: MultiGraph) -> nx.MultiGraph:
    """Convert to a :class:`networkx.MultiGraph`, preserving parallels/loops."""
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.edges())
    return g


def to_networkx_simple(graph: MultiGraph) -> nx.Graph:
    """Convert to a simple :class:`networkx.Graph` (parallels collapsed,
    loops dropped)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        if u != v:
            g.add_edge(u, v)
    return g


def from_networkx(g) -> MultiGraph:
    """Convert any undirected networkx graph into a :class:`MultiGraph`."""
    out = MultiGraph()
    for u in g.nodes():
        out.add_node(u)
    if g.is_multigraph():
        for u, v, _key in g.edges(keys=True):
            out.add_edge(u, v)
    else:
        for u, v in g.edges():
            out.add_edge(u, v)
    return out
