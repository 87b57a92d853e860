"""Grid sweeps: run experiment cells over a parameter grid and persist.

The table/figure modules cover the paper's fixed protocols; this module is
the tool behind them — a cartesian sweep over datasets, crawl fractions,
rewiring budgets and crawl regimes, with results streamed into the CSV/
Markdown writers so long runs survive interruption.  Tables II–V and
Figure 3 each build a :class:`SweepGrid` and call :func:`run_sweep`.

Execution goes through the :mod:`repro.api` layer: :func:`run_sweep`
materializes every cell with its spawned seed, then hands the list to the
context's executor (serial in process, or a ``jobs``-worker pool where
each worker builds a dataset and its read-only CSR snapshot once, on
first touch).  Results stream back in deterministic cell order, so the
CSV checkpoint after cell *k* is identical however many workers ran —
and a ``jobs=2`` sweep is bit-identical to ``jobs=1`` on fixed seeds
(timing columns aside, which are measurements).
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExperimentError
from repro.experiments.methods import METHOD_NAMES
from repro.experiments.report import results_to_csv
from repro.experiments.runner import (
    ExperimentConfig,
    MethodAggregate,
)
from repro.metrics.suite import EvaluationConfig
from repro.sampling.faults import FaultPolicy

if TYPE_CHECKING:
    from repro.api.context import RunContext


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep specification.

    ``fault_policies`` is the imperfect-crawler axis: one cell per
    (dataset, fraction, rc, policy) combination, where ``None`` entries
    mean ideal crawling (or whatever regime the
    :class:`~repro.api.RunContext` pins).  The default single-``None``
    axis reproduces existing grids cell for cell.

    ``seed`` seeds the default :class:`~repro.api.RunContext` when
    :func:`run_sweep` is called without one.
    """

    datasets: tuple[str, ...]
    fractions: tuple[float, ...] = (0.10,)
    rcs: tuple[float, ...] = (50.0,)
    runs: int = 3
    methods: tuple[str, ...] = METHOD_NAMES
    scale: float = 1.0
    seed: int = 1
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    fault_policies: tuple[FaultPolicy | None, ...] = (None,)

    def cells(
        self, context: "RunContext | None" = None
    ) -> Iterator[ExperimentConfig]:
        """Yield one :class:`ExperimentConfig` per grid cell.

        With a ``context``, every cell carries the context's compute
        backend, its evaluation-mode upgrades, and a per-cell seed
        spawned from the context's base seed; without one, the grid's
        ``seed`` is threaded as-is into every cell.  An empty axis, or two
        cells sharing a :func:`cell_key` (which keys their CSV rows),
        raises :class:`~repro.errors.ExperimentError` before any cell is
        yielded.
        """
        for axis in ("datasets", "fractions", "rcs", "fault_policies"):
            if not getattr(self, axis):
                raise ExperimentError(f"sweep needs at least one entry in {axis}")
        raw = (
            ExperimentConfig(
                dataset=dataset,
                fraction=fraction,
                runs=self.runs,
                methods=self.methods,
                rc=rc,
                scale=self.scale,
                seed=self.seed,
                evaluation=self.evaluation,
                fault_policy=fault_policy,
            )
            for dataset in self.datasets
            for fraction in self.fractions
            for rc in self.rcs
            for fault_policy in self.fault_policies
        )
        configs = list(raw) if context is None else context.materialize(raw)
        seen: set[str] = set()
        for config in configs:
            key = cell_key(config)
            if key in seen:
                raise ExperimentError(
                    f"sweep cells share the key {key!r}; each cell needs "
                    "its own CSV row"
                )
            seen.add(key)
        yield from configs

    def size(self) -> int:
        """Number of cells in the grid."""
        return (
            len(self.datasets)
            * len(self.fractions)
            * len(self.rcs)
            * len(self.fault_policies)
        )


def cell_key(config: ExperimentConfig) -> str:
    """Stable label: ``dataset@fraction/rc`` (ideal crawling), with the
    fault-policy label appended under a non-null regime — so existing
    CSVs are byte-identical and fault cells are distinguishable within
    one sweep."""
    base = f"{config.dataset}@{config.fraction:g}/rc{config.rc:g}"
    policy = config.fault_policy
    if policy is not None and not policy.is_null:
        return f"{base}/{policy.label()}"
    return base


@dataclass
class SweepCellResult:
    """One completed cell: its config plus per-method aggregates."""

    config: ExperimentConfig
    aggregates: dict[str, MethodAggregate]

    def key(self) -> str:
        """The cell's :func:`cell_key`."""
        return cell_key(self.config)


def run_sweep(
    grid: SweepGrid,
    csv_path: str | os.PathLike | None = None,
    context: "RunContext | None" = None,
) -> list[SweepCellResult]:
    """Execute every cell of ``grid`` (optionally checkpointing to CSV).

    ``context`` selects the backend, base seed, evaluation mode, and
    worker count; when omitted, a serial context is built from the grid's
    ``seed``.  When ``csv_path`` is given, the CSV is replaced atomically
    after every completed cell — in deterministic cell order even under a
    process pool — so a killed sweep loses at most one cell of work.
    """
    from repro.api.context import RunContext
    from repro.api.run import map_cells

    if context is None:
        context = RunContext(seed=grid.seed)
    cells = list(grid.cells(context))

    results: list[SweepCellResult] = []
    for config, aggregates in zip(cells, map_cells(cells, context), strict=True):
        results.append(SweepCellResult(config=config, aggregates=aggregates))
        if csv_path is not None:
            _write_checkpoint(results, csv_path)
    return results


def sweep_to_csv(
    results: list[SweepCellResult], include_timings: bool = True
) -> str:
    """Serialize a sweep with the cell key as the dataset column.

    ``include_timings=False`` drops the wall-clock columns, leaving only
    the deterministic aggregates — the form covered by the serial↔parallel
    bit-identity contract (timings are measurements and vary run to run).
    """
    keyed = {cell.key(): cell.aggregates for cell in results}
    return results_to_csv(keyed, include_timings=include_timings)


def best_method_per_cell(results: list[SweepCellResult]) -> dict[str, str]:
    """``{cell key: winning method}`` by lowest average L1."""
    out: dict[str, str] = {}
    for cell in results:
        out[cell.key()] = min(
            cell.aggregates, key=lambda m: cell.aggregates[m].average_l1
        )
    return out


def _write_checkpoint(
    results: list[SweepCellResult], csv_path: str | os.PathLike
) -> None:
    """Replace ``csv_path`` with the sweep so far, atomically.

    The rows go to a sibling ``.tmp`` file that is then renamed over the
    checkpoint, so a sweep killed or failing mid-write leaves the previous
    checkpoint whole rather than a truncated file.
    """
    tmp_path = f"{os.fspath(csv_path)}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as f:
            f.write(sweep_to_csv(results))
        os.replace(tmp_path, csv_path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)  # left behind only by a failed write
