"""Table II / III / IV / V regeneration and text formatting.

Each ``tableN_rows`` function runs the corresponding experiment and returns
structured rows; each ``format_tableN`` renders them in the paper's layout
(datasets x methods, lowest value per column implicitly comparable).  The
CLI and the benchmark harness print these verbatim.

Execution routes through :mod:`repro.api`: every dataset is one cell, the
cell list goes to the context's executor (``RunContext(jobs=N)`` runs the
datasets of a table concurrently), and rows come back in dataset order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.methods import METHOD_LABELS, METHOD_NAMES
from repro.experiments.runner import (
    ExperimentConfig,
    MethodAggregate,
)
from repro.graph.datasets import TABLE2_DATASETS, TABLE34_DATASETS, YOUTUBE_DATASET
from repro.metrics.suite import PROPERTY_LABELS, PROPERTY_NAMES, EvaluationConfig

if TYPE_CHECKING:
    from repro.api.context import RunContext


@dataclass(frozen=True)
class TableSettings:
    """Shared sweep knobs for the table experiments.

    The paper uses 10 runs, 10% queried (1% for YouTube), and RC = 500.
    Defaults here are reduced bench-scale settings; pass paper-scale
    values for a full run.

    ``seed`` seeds the default :class:`~repro.api.RunContext` when a
    table function is called without one.
    """

    runs: int = 3
    fraction: float = 0.10
    rc: float = 50.0
    scale: float = 1.0
    seed: int = 1
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    methods: tuple[str, ...] = METHOD_NAMES


def _cell(dataset: str, settings: TableSettings, fraction: float | None = None):
    return ExperimentConfig(
        dataset=dataset,
        fraction=settings.fraction if fraction is None else fraction,
        runs=settings.runs,
        methods=settings.methods,
        rc=settings.rc,
        scale=settings.scale,
        seed=settings.seed,
        evaluation=settings.evaluation,
    )


def _context_for(settings: TableSettings, context: "RunContext | None") -> "RunContext":
    """The execution context: explicit, or seeded from the settings."""
    from repro.api.context import RunContext

    if context is not None:
        return context
    return RunContext(seed=settings.seed)


def _run_cells(
    datasets: tuple[str, ...],
    settings: TableSettings,
    context: "RunContext",
    fraction: float | None = None,
) -> dict[str, dict[str, MethodAggregate]]:
    """One cell per dataset, through the context's executor, in order."""
    from repro.api.run import map_cells

    cells = context.materialize(
        _cell(d, settings, fraction=fraction) for d in datasets
    )
    return dict(zip(datasets, map_cells(cells, context), strict=True))


# ----------------------------------------------------------------------
# Table II: per-property L1 at 10% queried (Slashdot / Gowalla / Livemocha)
# ----------------------------------------------------------------------
def table2_rows(
    settings: TableSettings | None = None,
    datasets: tuple[str, ...] = TABLE2_DATASETS,
    context: "RunContext | None" = None,
) -> dict[str, dict[str, MethodAggregate]]:
    """``{dataset: {method: aggregate}}`` for the Table II datasets."""
    s = settings or TableSettings()
    return _run_cells(datasets, s, _context_for(s, context))


def format_table2(results: dict[str, dict[str, MethodAggregate]]) -> str:
    header = ["Dataset", "Method"] + [PROPERTY_LABELS[p] for p in PROPERTY_NAMES]
    lines = ["\t".join(header)]
    for dataset, by_method in results.items():
        for method, agg in by_method.items():
            cells = [dataset, METHOD_LABELS[method]]
            cells += [f"{agg.per_property[p]:.3f}" for p in PROPERTY_NAMES]
            lines.append("\t".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table III: avg +/- sd of the 12 L1 distances, six datasets
# ----------------------------------------------------------------------
def table3_rows(
    settings: TableSettings | None = None,
    datasets: tuple[str, ...] = TABLE34_DATASETS,
    context: "RunContext | None" = None,
) -> dict[str, dict[str, MethodAggregate]]:
    """``{dataset: {method: aggregate}}`` for the Table III datasets."""
    s = settings or TableSettings()
    return _run_cells(datasets, s, _context_for(s, context))


def format_table3(results: dict[str, dict[str, MethodAggregate]]) -> str:
    methods = _methods_of(results)
    header = ["Dataset"] + [METHOD_LABELS[m] for m in methods]
    lines = ["\t".join(header)]
    for dataset, by_method in results.items():
        cells = [dataset]
        for m in methods:
            agg = by_method[m]
            cells.append(f"{agg.average_l1:.3f}+/-{agg.std_l1:.3f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table IV: generation times (total / rewiring), six datasets
# ----------------------------------------------------------------------
def table4_rows(
    settings: TableSettings | None = None,
    datasets: tuple[str, ...] = TABLE34_DATASETS,
    context: "RunContext | None" = None,
) -> dict[str, dict[str, MethodAggregate]]:
    """Same sweep as Table III; the formatter reads the timing fields."""
    return table3_rows(settings, datasets, context=context)


def format_table4(results: dict[str, dict[str, MethodAggregate]]) -> str:
    methods = _methods_of(results)
    header = ["Dataset"]
    for m in methods:
        header.append(METHOD_LABELS[m])
        if m in ("gjoka", "proposed"):
            header.append(METHOD_LABELS[m] + " (rewiring)")
    lines = ["\t".join(header)]
    for dataset, by_method in results.items():
        cells = [dataset]
        for m in methods:
            agg = by_method[m]
            cells.append(f"{agg.total_seconds:.3f}")
            if m in ("gjoka", "proposed"):
                cells.append(f"{agg.rewiring_seconds:.3f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table V: YouTube at 1% queried — distances, avg +/- sd, and time
# ----------------------------------------------------------------------
def table5_rows(
    settings: TableSettings | None = None,
    fraction: float = 0.01,
    context: "RunContext | None" = None,
) -> dict[str, MethodAggregate]:
    """``{method: aggregate}`` for the YouTube stand-in at 1% queried.

    The paper uses 5 runs here; pass ``TableSettings(runs=5)`` for parity.
    ``fraction`` exists because the collision-based size estimator needs
    ``(queried)^2 / n`` in a workable range: the paper's 1% of 1.13M nodes
    yields ~11k queried, while 1% of a laptop-scale stand-in yields tens.
    Benches pass a scale-compensated fraction and record it.
    """
    s = settings or TableSettings(runs=2)
    ctx = _context_for(s, context)
    return _run_cells((YOUTUBE_DATASET,), s, ctx, fraction=fraction)[YOUTUBE_DATASET]


def format_table5(results: dict[str, MethodAggregate]) -> str:
    header = (
        ["Method"]
        + [PROPERTY_LABELS[p] for p in PROPERTY_NAMES]
        + ["AVG+/-SD", "Time (sec)"]
    )
    lines = ["\t".join(header)]
    for method, agg in results.items():
        cells = [METHOD_LABELS[method]]
        cells += [f"{agg.per_property[p]:.3f}" for p in PROPERTY_NAMES]
        cells.append(f"{agg.average_l1:.3f}+/-{agg.std_l1:.3f}")
        cells.append(f"{agg.total_seconds:.2f}")
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _methods_of(results: dict[str, dict[str, MethodAggregate]]) -> tuple[str, ...]:
    first = next(iter(results.values()))
    return tuple(first)
