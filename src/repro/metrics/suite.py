"""Evaluation suite: compute all 12 properties and their L1 distances.

This is the harness-facing entry point.  A :class:`PropertySet` snapshot of
the original graph is computed once per dataset, then every generated graph
is evaluated against it under the same :class:`EvaluationConfig` (identical
sampling settings for both sides keeps the comparison fair, as the paper
does with its parallel exact algorithms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.graph.multigraph import MultiGraph
from repro.metrics.basic import degree_distribution, neighbor_connectivity
from repro.metrics.betweenness import degree_dependent_betweenness
from repro.metrics.clustering import (
    degree_dependent_clustering,
    network_clustering,
    shared_partner_distribution,
)
from repro.metrics.distance import normalized_l1
from repro.metrics.paths import shortest_path_stats
from repro.metrics.spectral import largest_eigenvalue
from repro.utils.rng import ensure_rng

# Canonical property order, matching the paper's Table II columns.
PROPERTY_NAMES: tuple[str, ...] = (
    "num_nodes",
    "average_degree",
    "degree_distribution",
    "neighbor_connectivity",
    "clustering",
    "degree_clustering",
    "shared_partners",
    "average_path_length",
    "path_length_distribution",
    "diameter",
    "degree_betweenness",
    "largest_eigenvalue",
)

LOCAL_PROPERTY_NAMES: tuple[str, ...] = PROPERTY_NAMES[:7]
GLOBAL_PROPERTY_NAMES: tuple[str, ...] = PROPERTY_NAMES[7:]

# Human-readable labels used by the table formatters (paper notation).
PROPERTY_LABELS: dict[str, str] = {
    "num_nodes": "n",
    "average_degree": "kbar",
    "degree_distribution": "P(k)",
    "neighbor_connectivity": "knn(k)",
    "clustering": "cbar",
    "degree_clustering": "c(k)",
    "shared_partners": "P(s)",
    "average_path_length": "lbar",
    "path_length_distribution": "P(l)",
    "diameter": "lmax",
    "degree_betweenness": "b(k)",
    "largest_eigenvalue": "lambda1",
}


@dataclass(frozen=True)
class EvaluationConfig:
    """Sampling knobs for the expensive global properties.

    ``exact_threshold`` is the node count up to which shortest-path and
    betweenness computations stay exact; larger graphs use ``path_sources``
    BFS sources and ``betweenness_pivots`` Brandes pivots.  The defaults
    keep a full 6-method x 10-run sweep tractable in pure Python.

    ``exact_paths`` opts the shortest-path triple (l̄, {P(l)}, l_max) out
    of the sampled protocol entirely: BFS runs from *every* node regardless
    of ``exact_threshold``.  On the CSR backend the length histogram
    streams (the (sources × nodes) distance matrix is never materialized),
    which is what makes exact mode feasible at large scale; betweenness
    keeps its pivot sampling either way.  The harness exposes this as
    ``RunContext(exact_paths=True)`` / ``--exact-paths``.

    ``backend`` selects the compute path for every one of the 12
    properties: ``"auto"`` runs every graph on the CSR kernels over a
    frozen snapshot (:func:`repro.engine.dispatch.ensure_csr`), whatever
    its size; ``"python"`` / ``"csr"`` force one side.  Results
    agree per the engine's contract: bit-identical on fixed seeds for
    every property except the documented round-off pair — the clustering
    aggregates (different float summation order, ≤1e-12 relative) and λ1
    (same byte-identical matrix, eigensolver tolerance).  ``num_nodes``
    and ``average_degree`` are direct graph reads, the same on any
    backend.
    """

    exact_threshold: int = 600
    path_sources: int = 128
    betweenness_pivots: int = 64
    seed: int = 7
    backend: str = "auto"
    exact_paths: bool = False

    def sources_for(self, graph: MultiGraph) -> int | None:
        """BFS source budget for ``graph`` (None = exact)."""
        if self.exact_paths or graph.num_nodes <= self.exact_threshold:
            return None
        return min(self.path_sources, graph.num_nodes)

    def pivots_for(self, graph: MultiGraph) -> int | None:
        """Brandes pivot budget for ``graph`` (None = exact)."""
        if graph.num_nodes <= self.exact_threshold:
            return None
        return min(self.betweenness_pivots, graph.num_nodes)


@dataclass
class PropertySet:
    """Values of the 12 properties for one graph."""

    num_nodes: float
    average_degree: float
    degree_distribution: dict[int, float]
    neighbor_connectivity: dict[int, float]
    clustering: float
    degree_clustering: dict[int, float]
    shared_partners: dict[int, float]
    average_path_length: float
    path_length_distribution: dict[int, float]
    diameter: float
    degree_betweenness: dict[int, float]
    largest_eigenvalue: float
    config: EvaluationConfig = field(default_factory=EvaluationConfig)

    def value(self, name: str):
        """Value of the property called ``name`` (see PROPERTY_NAMES)."""
        return getattr(self, name)


def compute_properties(
    graph: MultiGraph, config: EvaluationConfig | None = None
) -> PropertySet:
    """Evaluate all 12 properties of ``graph`` under ``config``."""
    cfg = config or EvaluationConfig()
    rng = ensure_rng(cfg.seed)
    paths = shortest_path_stats(
        graph,
        num_sources=cfg.sources_for(graph),
        rng=random.Random(rng.getrandbits(64)),
        backend=cfg.backend,
    )
    betweenness = degree_dependent_betweenness(
        graph,
        num_pivots=cfg.pivots_for(graph),
        rng=random.Random(rng.getrandbits(64)),
        backend=cfg.backend,
    )
    return PropertySet(
        num_nodes=float(graph.num_nodes),
        average_degree=graph.average_degree(),
        degree_distribution=degree_distribution(graph, backend=cfg.backend),
        neighbor_connectivity=neighbor_connectivity(graph, backend=cfg.backend),
        clustering=network_clustering(graph, backend=cfg.backend),
        degree_clustering=degree_dependent_clustering(graph, backend=cfg.backend),
        shared_partners=shared_partner_distribution(graph, backend=cfg.backend),
        average_path_length=paths.average_length,
        path_length_distribution=paths.length_distribution,
        diameter=float(paths.diameter),
        degree_betweenness=betweenness,
        largest_eigenvalue=largest_eigenvalue(graph, backend=cfg.backend),
        config=cfg,
    )


def l1_distances(original: PropertySet, generated: PropertySet) -> dict[str, float]:
    """Normalized L1 distance per property, keyed by PROPERTY_NAMES."""
    return {
        name: normalized_l1(original.value(name), generated.value(name))
        for name in PROPERTY_NAMES
    }


def average_l1(distances: dict[str, float]) -> float:
    """Mean L1 over the 12 properties (the paper's headline number)."""
    return sum(distances[name] for name in PROPERTY_NAMES) / len(PROPERTY_NAMES)
