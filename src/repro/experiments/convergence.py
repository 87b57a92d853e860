"""Estimator-convergence study: estimation error vs. crawl budget.

Not a table in the paper, but the mechanism behind its Figure 3 trend: the
restoration quality tracks the quality of the five local estimates, which
improve with walk length.  This module sweeps the crawl fraction and
records each estimator's error against the exact value, quantifying how
much budget each estimate needs — the first thing a practitioner deploying
the method wants to know.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.estimators.local import (
    estimate_local_properties,
    exact_local_properties,
)
from repro.graph.datasets import load_dataset
from repro.graph.multigraph import MultiGraph
from repro.metrics.distance import normalized_l1, relative_error
from repro.sampling.access import GraphAccess
from repro.sampling.walkers import random_walk
from repro.utils.rng import ensure_rng
from repro.utils.stats import mean

ESTIMATOR_COLUMNS = ("n", "kbar", "P(k)", "P(k,k')", "c(k)")


@dataclass(frozen=True)
class ConvergencePoint:
    """Mean estimator errors at one crawl fraction."""

    fraction: float
    mean_walk_length: float
    errors: dict[str, float]  # keyed by ESTIMATOR_COLUMNS


def estimator_convergence(
    dataset: str = "anybeat",
    fractions: tuple[float, ...] = (0.02, 0.05, 0.10, 0.20, 0.40),
    runs: int = 3,
    scale: float = 1.0,
    seed: int = 1,
    original: MultiGraph | None = None,
) -> list[ConvergencePoint]:
    """Sweep crawl fractions; return mean errors per estimator.

    Each of a fraction's ``runs`` rounds is one :func:`random_walk` over a
    fresh :class:`GraphAccess`, all drawing from one generator seeded by
    ``seed``.  ``original`` overrides the dataset lookup (tests inject
    small graphs).
    """
    graph = original if original is not None else load_dataset(dataset, scale=scale)
    exact = exact_local_properties(graph)
    rng = ensure_rng(seed)
    points: list[ConvergencePoint] = []
    for fraction in fractions:
        target = max(3, int(round(fraction * graph.num_nodes)))
        run_errors: dict[str, list[float]] = {c: [] for c in ESTIMATOR_COLUMNS}
        lengths: list[float] = []
        for _ in range(runs):
            walk = random_walk(GraphAccess(graph), target, rng=rng)
            est = estimate_local_properties(walk)
            lengths.append(walk.length)
            run_errors["n"].append(relative_error(exact.num_nodes, est.num_nodes))
            run_errors["kbar"].append(
                relative_error(exact.average_degree, est.average_degree)
            )
            run_errors["P(k)"].append(
                normalized_l1(exact.degree_distribution, est.degree_distribution)
            )
            run_errors["P(k,k')"].append(
                normalized_l1(
                    exact.joint_degree_distribution, est.joint_degree_distribution
                )
            )
            run_errors["c(k)"].append(
                normalized_l1(exact.degree_clustering, est.degree_clustering)
            )
        points.append(
            ConvergencePoint(
                fraction=fraction,
                mean_walk_length=mean(lengths),
                errors={c: mean(v) for c, v in run_errors.items()},
            )
        )
    return points


def format_convergence(points: list[ConvergencePoint], title: str = "") -> str:
    """Tab-separated convergence block."""
    lines: list[str] = []
    if title:
        lines.append(f"# {title}")
    header = ["% queried", "walk r"] + list(ESTIMATOR_COLUMNS)
    lines.append("\t".join(header))
    for p in points:
        row = [f"{p.fraction * 100:.0f}%", f"{p.mean_walk_length:.0f}"]
        row += [f"{p.errors[c]:.3f}" for c in ESTIMATOR_COLUMNS]
        lines.append("\t".join(row))
    return "\n".join(lines)
