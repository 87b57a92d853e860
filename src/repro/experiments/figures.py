"""Figure 3 (average L1 vs. % queried) and Figure 4 (graph portraits).

Figure 3 returns per-method series over a fraction sweep, printable as a
tab-separated block (and trivially plottable by downstream users);
Figure 4 writes one SVG per method plus the original, using the shared
force layout.

Figure 3 is a sweep: its (dataset × fraction) grid is a
:class:`~repro.experiments.sweeps.SweepGrid` that
:func:`~repro.experiments.sweeps.run_sweep` executes on the
:class:`~repro.api.RunContext`'s executor, so ``RunContext(jobs=N)`` runs
the whole sweep concurrently while the series are reassembled in
deterministic order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.methods import (
    METHOD_LABELS,
    METHOD_NAMES,
    run_methods_once,
)
from repro.experiments.sweeps import SweepGrid, run_sweep
from repro.graph.datasets import FIGURE3_DATASETS, load_dataset
from repro.metrics.suite import EvaluationConfig
from repro.utils.rng import ensure_rng
from repro.viz.layout import fruchterman_reingold_layout
from repro.viz.svg import save_svg

if TYPE_CHECKING:
    from repro.api.context import RunContext


@dataclass(frozen=True)
class Figure3Settings:
    """Sweep knobs for Figure 3 (paper: 1%..10% in 1% steps, 10 runs).

    ``seed`` seeds the default :class:`~repro.api.RunContext` when
    :func:`figure3_series` is called without one.
    """

    fractions: tuple[float, ...] = tuple(f / 100.0 for f in range(1, 11))
    runs: int = 3
    rc: float = 50.0
    scale: float = 1.0
    seed: int = 1
    methods: tuple[str, ...] = METHOD_NAMES
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)


def figure3_series(
    settings: Figure3Settings | None = None,
    datasets: tuple[str, ...] = FIGURE3_DATASETS,
    context: "RunContext | None" = None,
) -> dict[str, dict[str, list[float]]]:
    """``{dataset: {method: [avg L1 per fraction]}}`` over the sweep."""
    s = settings or Figure3Settings()
    grid = SweepGrid(
        datasets=datasets,
        fractions=s.fractions,
        rcs=(s.rc,),
        runs=s.runs,
        methods=s.methods,
        scale=s.scale,
        seed=s.seed,
        evaluation=s.evaluation,
    )
    out: dict[str, dict[str, list[float]]] = {
        d: {m: [] for m in s.methods} for d in datasets
    }
    for cell in run_sweep(grid, context=context):
        for m in s.methods:
            out[cell.config.dataset][m].append(cell.aggregates[m].average_l1)
    return out


def format_figure3(
    series: dict[str, dict[str, list[float]]],
    fractions: tuple[float, ...],
) -> str:
    """Tab-separated series block, one sub-table per dataset."""
    lines: list[str] = []
    for dataset, by_method in series.items():
        lines.append(f"# {dataset}: average L1 over 12 properties")
        header = ["% queried"] + [f"{f * 100:.0f}%" for f in fractions]
        lines.append("\t".join(header))
        for method, values in by_method.items():
            row = [METHOD_LABELS[method]] + [f"{v:.3f}" for v in values]
            lines.append("\t".join(row))
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class Figure4Settings:
    """Rendering knobs for Figure 4 (paper: Anybeat at 10% queried)."""

    dataset: str = "anybeat"
    fraction: float = 0.10
    rc: float = 50.0
    scale: float = 1.0
    seed: int = 1
    iterations: int = 60
    max_layout_nodes: int = 2_000
    methods: tuple[str, ...] = METHOD_NAMES


def figure4_render(
    output_dir: str | os.PathLike,
    settings: Figure4Settings | None = None,
    gallery: bool = True,
    context: "RunContext | None" = None,
) -> list[str]:
    """Write the original's and every method's SVG portrait; returns paths.

    With ``gallery=True`` (default) an ``fig4_<dataset>.html`` page
    embedding every panel side by side is written as well and appended to
    the returned path list.  ``context`` supplies the generation seed and
    the rewiring backend; without one the settings' ``seed`` and the
    ``auto`` backend apply.
    """
    s = settings or Figure4Settings()
    seed = context.seed if context is not None else s.seed
    backend = context.backend if context is not None else "auto"
    os.makedirs(output_dir, exist_ok=True)
    rng = ensure_rng(seed)
    original = load_dataset(s.dataset, scale=s.scale)
    outputs = run_methods_once(
        original, s.fraction, methods=s.methods, rc=s.rc, rng=rng,
        backend=backend,
    )

    paths: list[str] = []
    graphs = [("original", original)] + [
        (m, outputs[m].graph) for m in s.methods
    ]
    for label, graph in graphs:
        sample = (
            s.max_layout_nodes if graph.num_nodes > s.max_layout_nodes else None
        )
        layout = fruchterman_reingold_layout(
            graph, iterations=s.iterations, rng=rng, sample_nodes=sample
        )
        title = METHOD_LABELS.get(label, label.capitalize())
        path = os.path.join(str(output_dir), f"fig4_{s.dataset}_{label}.svg")
        save_svg(graph, layout, path, title=f"{title} ({s.dataset})")
        paths.append(path)
    if gallery:
        from repro.viz.gallery import save_gallery

        html_path = os.path.join(str(output_dir), f"fig4_{s.dataset}.html")
        save_gallery(paths, html_path, title=f"Figure 4 — {s.dataset}")
        paths.append(html_path)
    return paths
