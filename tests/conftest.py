"""Shared fixtures: small canonical graphs and pre-run walks."""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    powerlaw_cluster_graph,
    star_graph,
)
from repro.graph.multigraph import MultiGraph
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import random_walk


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/digests.json from this tree instead of "
        "checking it (record the reason in CHANGES.md)",
    )


@pytest.fixture
def triangle() -> MultiGraph:
    """K3."""
    return complete_graph(3)


@pytest.fixture
def k4() -> MultiGraph:
    """K4."""
    return complete_graph(4)


@pytest.fixture
def path3() -> MultiGraph:
    """Path 0-1-2."""
    return MultiGraph.from_edges([(0, 1), (1, 2)])


@pytest.fixture
def star5() -> MultiGraph:
    """Star with hub 0 and five leaves."""
    return star_graph(5)


@pytest.fixture
def cycle6() -> MultiGraph:
    """C6."""
    return cycle_graph(6)


@pytest.fixture
def paper_example() -> MultiGraph:
    """The 10-node graph of the paper's Figure 1."""
    edges = [
        (1, 3), (2, 3), (3, 4), (3, 6), (5, 6), (6, 8),
        (1, 2), (4, 7), (7, 9), (8, 9), (9, 10), (5, 10),
    ]
    return MultiGraph.from_edges(edges)


@pytest.fixture
def social_graph() -> MultiGraph:
    """Small heavy-tailed clustered graph (deterministic)."""
    return powerlaw_cluster_graph(120, 3, 0.4, rng=42)


@pytest.fixture
def er_graph() -> MultiGraph:
    """Erdős–Rényi G(60, 150) (deterministic)."""
    return gnm_random_graph(60, 150, rng=7)


@pytest.fixture
def multigraph_with_parallels() -> MultiGraph:
    """Mixed multigraph: parallels, a loop, and simple edges."""
    g = MultiGraph()
    g.add_edge(0, 1)
    g.add_edge(0, 1)  # parallel
    g.add_edge(1, 2)
    g.add_edge(2, 2)  # loop
    g.add_edge(2, 3)
    g.add_edge(3, 0)
    return g


@pytest.fixture
def social_walk(social_graph):
    """A walk covering ~40% of the social graph (deterministic)."""
    access = GraphAccess(social_graph)
    walk = random_walk(access, target_queried=48, rng=5)
    return walk


@pytest.fixture
def long_walk(social_graph):
    """A near-exhaustive walk for estimator-convergence tests."""
    access = GraphAccess(social_graph)
    return random_walk(access, target_queried=115, rng=11)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
