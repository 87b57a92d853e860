"""Dataset registry: synthetic stand-ins for the paper's seven graphs.

The paper (Table I) evaluates on Anybeat, Brightkite, Epinions, Slashdot,
Gowalla, Livemocha, and YouTube, preprocessed to simple undirected largest
connected components.  Those datasets cannot be downloaded here, so each
name maps to a deterministic synthetic graph whose *shape* matches the
original: matched average degree, heavy-tailed degree distribution,
non-trivial clustering, one connected component, scaled down ~10-100x in
node count so the full pipeline runs on a laptop.

The substitution is faithful for the reproduction because every method under
test touches the graph only through neighbor queries; relative method
rankings in the paper are driven by heavy tails plus clustering, both of
which the stand-ins reproduce.

Each entry records the paper's true size next to the stand-in's, so the
scale factor can be reported explicitly (``repro datasets`` prints both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DatasetError
from repro.graph import generators
from repro.graph.components import largest_connected_component
from repro.graph.multigraph import MultiGraph
from repro.graph.simplify import simplified


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one named dataset stand-in."""

    name: str
    paper_nodes: int
    paper_edges: int
    n: int  # stand-in node budget before LCC extraction
    m_attach: int  # Holme-Kim edges per arriving node
    p_triad: float  # triangle-closing probability
    n_communities: int
    inter_fraction: float
    seed: int

    @property
    def paper_average_degree(self) -> float:
        """Average degree of the original dataset (2m/n)."""
        return 2.0 * self.paper_edges / self.paper_nodes


# Average degrees of the originals: anybeat 7.8, brightkite 7.5,
# epinions 10.7, slashdot 12.1, gowalla 9.7, livemocha 42.1, youtube 5.3.
# m_attach approximates half the average degree (each HK arrival adds
# m_attach edges); inter-community bridges make up the remainder.
_SPECS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("anybeat", 12_645, 49_132, 2_500, 3, 0.35, 4, 0.12, 101),
        DatasetSpec("brightkite", 56_739, 212_945, 3_500, 3, 0.45, 6, 0.10, 202),
        DatasetSpec("epinions", 75_877, 405_739, 4_000, 5, 0.30, 5, 0.08, 303),
        DatasetSpec("slashdot", 77_360, 469_180, 4_200, 5, 0.20, 5, 0.10, 404),
        DatasetSpec("gowalla", 196_591, 950_327, 5_500, 4, 0.40, 8, 0.08, 505),
        DatasetSpec("livemocha", 104_103, 2_193_083, 3_200, 8, 0.15, 3, 0.06, 606),
        DatasetSpec("youtube", 1_134_890, 2_987_624, 10_000, 2, 0.25, 10, 0.12, 707),
    )
}

# Dataset groups as used by the paper's experiments.
FIGURE3_DATASETS = ("anybeat", "brightkite", "epinions")
TABLE2_DATASETS = ("slashdot", "gowalla", "livemocha")
TABLE34_DATASETS = (
    "anybeat",
    "brightkite",
    "epinions",
    "slashdot",
    "gowalla",
    "livemocha",
)
YOUTUBE_DATASET = "youtube"

_CACHE: dict[tuple[str, float], MultiGraph] = {}


def dataset_names() -> list[str]:
    """Names of the seven registered dataset stand-ins, paper order."""
    return list(_SPECS)


def dataset_spec(name: str) -> DatasetSpec:
    """Spec for ``name``; raises :class:`DatasetError` for unknown names."""
    try:
        return _SPECS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(_SPECS)}"
        ) from None


def load_dataset(name: str, scale: float = 1.0, cache: bool = True) -> MultiGraph:
    """Build (or fetch from cache) the stand-in graph for ``name``.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    scale:
        Multiplier on the stand-in node budget; benches use ``scale < 1`` to
        keep sweep runtimes bounded.  The same scale always yields the same
        graph (generation is seeded per dataset).  A stand-in is never
        larger than the graph it stands in for: ``scale`` must be finite,
        positive and at most ``paper_nodes / n`` (anybeat 5.06, youtube
        113.5), else :class:`DatasetError`.
    cache:
        Memoize graphs per ``(name, scale)`` — the experiment harness loads
        the same dataset for every method and run.

    The result mirrors the paper's preprocessing: simple, undirected,
    largest connected component, node ids relabeled to ``0..n-1``.
    """
    key = (name, scale)
    if cache and key in _CACHE:
        return _CACHE[key]
    spec = dataset_spec(name)
    if not math.isfinite(scale) or scale <= 0:
        raise DatasetError(f"scale must be positive and finite, got {scale}")
    if spec.n * scale > spec.paper_nodes:
        raise DatasetError(
            f"scale {scale} would give the {name} stand-in {spec.n * scale:.0f} "
            f"nodes, more than the {spec.paper_nodes} of the graph it stands in "
            f"for; the largest scale is {spec.paper_nodes / spec.n:.4g}"
        )
    n = max(50, int(spec.n * scale))
    raw = generators.community_social_graph(
        n=n,
        n_communities=spec.n_communities,
        m_intra=spec.m_attach,
        p_triad=spec.p_triad,
        inter_fraction=spec.inter_fraction,
        rng=spec.seed,
    )
    graph = _preprocess(raw, seed=spec.seed)
    if cache:
        _CACHE[key] = graph
    return graph


def clear_dataset_cache() -> None:
    """Drop all memoized dataset graphs (tests use this for isolation)."""
    _CACHE.clear()


def _preprocess(raw: MultiGraph, seed: int) -> MultiGraph:
    """Paper-style preprocessing: simplify, take the LCC, relabel 0..n-1."""
    simple = simplified(raw)
    lcc = largest_connected_component(simple)
    shuffled = generators.relabel_shuffled(lcc, rng=seed + 1)
    mapping = {u: i for i, u in enumerate(sorted(shuffled.nodes()))}
    out = MultiGraph()
    for u in sorted(shuffled.nodes()):
        out.add_node(mapping[u])
    for u, v in shuffled.edges():
        out.add_edge(mapping[u], mapping[v])
    return out
