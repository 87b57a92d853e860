"""Ablations of the proposed method's design choices.

The paper motivates three design decisions that these ablations isolate:

1. **Rewiring candidate exclusion** (Section IV-E): restricting the
   candidate set to ``E~ \\ E'`` both protects the sampled structure and
   shrinks the rewiring workload.  :func:`rewiring_exclusion_ablation`
   runs the identical pipeline with the exclusion on and off.
2. **Rewiring budget** (Section VI-C): accuracy of the clustering targets
   versus wall-clock as ``RC`` grows.  :func:`rc_sweep_ablation`.
3. **Subgraph structure use** (the method itself): the Gjoka baseline is
   exactly the pipeline minus every subgraph-aware step, so the main
   experiments already report this ablation; :func:`subgraph_use_ablation`
   packages a focused single-dataset version.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from repro.graph.datasets import load_dataset
from repro.metrics.suite import (
    EvaluationConfig,
    compute_properties,
    l1_distances,
)
from repro.metrics.suite import average_l1 as _avg
from repro.restore.gjoka import gjoka_generate
from repro.restore.restorer import restore_from_walk
from repro.sampling.access import GraphAccess, crawl_budget
from repro.sampling.walkers import random_walk
from repro.utils.rng import ensure_rng


@dataclass
class AblationRow:
    """One ablation variant's outcome."""

    variant: str
    average_l1: float
    clustering_l1: float
    rewiring_seconds: float
    rewiring_accepted: int
    final_distance: float


def _ablate(
    variants: list[tuple[str, Callable]],
    dataset: str,
    fraction: float,
    scale: float,
    seed: int,
    evaluation: EvaluationConfig | None,
) -> list[AblationRow]:
    """Score each ``(label, restore)`` variant on one shared walk.

    The dataset's truth is evaluated once and the walk drawn once, from
    ``seed``; every variant then restores that walk as
    ``restore(walk, rng=ensure_rng(seed + 1))``, so variants differ only
    in the design choice under test.
    """
    rng = ensure_rng(seed)
    cfg = evaluation or EvaluationConfig()
    graph = load_dataset(dataset, scale=scale)
    truth = compute_properties(graph, cfg)
    target = crawl_budget(fraction, graph.num_nodes)
    walk = random_walk(GraphAccess(graph), target, rng=rng)

    rows: list[AblationRow] = []
    for variant, restore in variants:
        result = restore(walk, rng=ensure_rng(seed + 1))
        d = l1_distances(truth, compute_properties(result.graph, cfg))
        rows.append(
            AblationRow(
                variant=variant,
                average_l1=_avg(d),
                clustering_l1=d["degree_clustering"],
                rewiring_seconds=result.rewiring_seconds,
                rewiring_accepted=result.rewiring.accepted,
                final_distance=result.rewiring.final_distance,
            )
        )
    return rows


def rewiring_exclusion_ablation(
    dataset: str = "anybeat",
    fraction: float = 0.10,
    rc: float = 50.0,
    scale: float = 1.0,
    seed: int = 1,
    evaluation: EvaluationConfig | None = None,
    backend: str = "auto",
) -> list[AblationRow]:
    """Proposed pipeline with candidate exclusion on vs. off (same walk)."""
    variants = [
        (
            variant,
            functools.partial(
                restore_from_walk,
                rc=rc,
                protect_subgraph_edges=protect,
                backend=backend,
            ),
        )
        for variant, protect in (("exclude subgraph edges", True), ("all edges", False))
    ]
    return _ablate(variants, dataset, fraction, scale, seed, evaluation)


#: The RC values :func:`rc_sweep_ablation` sweeps unless told otherwise.
RC_SWEEP = (5, 25, 100, 500)


def rc_sweep_ablation(
    dataset: str = "anybeat",
    fraction: float = 0.10,
    rc_values: tuple[float, ...] = RC_SWEEP,
    scale: float = 1.0,
    seed: int = 1,
    evaluation: EvaluationConfig | None = None,
    backend: str = "auto",
) -> list[AblationRow]:
    """Accuracy/time trade-off of the rewiring budget ``RC`` (same walk)."""
    variants = [
        (f"RC={rc:g}", functools.partial(restore_from_walk, rc=rc, backend=backend))
        for rc in rc_values
    ]
    return _ablate(variants, dataset, fraction, scale, seed, evaluation)


def subgraph_use_ablation(
    dataset: str = "anybeat",
    fraction: float = 0.10,
    rc: float = 50.0,
    scale: float = 1.0,
    seed: int = 1,
    evaluation: EvaluationConfig | None = None,
    backend: str = "auto",
) -> list[AblationRow]:
    """Proposed (subgraph-aware) vs. Gjoka (estimates only), same walk."""
    variants = [
        (variant, functools.partial(fn, rc=rc, backend=backend))
        for variant, fn in (("proposed", restore_from_walk), ("gjoka", gjoka_generate))
    ]
    return _ablate(variants, dataset, fraction, scale, seed, evaluation)


def format_ablation(rows: list[AblationRow], title: str) -> str:
    """Tab-separated ablation block."""
    lines = [
        f"# {title}",
        "variant\tavg L1\tc(k) L1\trewire sec\taccepted\tfinal D",
    ]
    for row in rows:
        lines.append(
            f"{row.variant}\t{row.average_l1:.3f}\t{row.clustering_l1:.3f}"
            f"\t{row.rewiring_seconds:.2f}\t{row.rewiring_accepted}"
            f"\t{row.final_distance:.3f}"
        )
    return "\n".join(lines)
