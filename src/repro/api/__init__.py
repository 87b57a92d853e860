"""``repro.api`` — the unified session surface for the experiment harness.

One import gives the whole evaluation protocol (crawl → estimate →
restore → evaluate 12 properties over repeated runs) behind a single
execution contract::

    from repro.api import RunContext, SweepGrid, run_sweep, sweep_to_csv

    grid = SweepGrid(datasets=("anybeat", "brightkite"), fractions=(0.05, 0.10))
    context = RunContext(backend="csr", seed=7, jobs=4)
    results = run_sweep(grid, csv_path="sweep.csv", context=context)

The :class:`RunContext` carries *how* work executes (compute backend, base
seed, evaluation mode, worker count); the grids/settings carry *what* runs.
All cell and run seeds are spawned deterministically from the context's
base seed before execution, and executors stream results in cell order —
so ``jobs=4`` is bit-identical to ``jobs=1`` on fixed seeds, and so is
``workers=("hostA:9000", "hostB:9000")``, which shards the same work
across ``repro worker`` agents on other machines.  Under the hood one
order-preserving :class:`Scheduler` drives a pluggable :class:`Transport`
(in-thread, process pool, or socket coordinator).  See
``docs/ARCHITECTURE.md`` ("Execution model") for the full contract.
"""

from repro.api.context import RunContext, spawn_seeds
from repro.api.distributed import SocketTransport, run_worker
from repro.api.executors import (
    ExecutionSpec,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    SocketExecutor,
    executor_for,
)
from repro.api.run import map_cells
from repro.api.scheduler import LocalThreadTransport, Scheduler, Transport
from repro.api.workers import (
    DatasetPublication,
    SharedDataset,
    pool_worker_init,
    publish_cells,
    publish_datasets,
)
from repro.experiments.figures import (
    Figure3Settings,
    Figure4Settings,
    figure3_series,
    figure4_render,
    format_figure3,
)
from repro.experiments.runner import (
    ExperimentConfig,
    MethodAggregate,
    RunRecord,
    aggregate_records,
    clear_truth_cache,
    execute_run,
    run_experiment,
    set_truth_cache_limit,
    truth_cache_stats,
)
from repro.experiments.sweeps import (
    SweepCellResult,
    SweepGrid,
    best_method_per_cell,
    run_sweep,
    sweep_to_csv,
)
from repro.experiments.tables import (
    TableSettings,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.metrics.suite import EvaluationConfig

__all__ = [
    "RunContext",
    "spawn_seeds",
    "Executor",
    "ExecutionSpec",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "SocketExecutor",
    "executor_for",
    "Scheduler",
    "Transport",
    "LocalThreadTransport",
    "SocketTransport",
    "run_worker",
    "map_cells",
    "DatasetPublication",
    "SharedDataset",
    "pool_worker_init",
    "publish_cells",
    "publish_datasets",
    "ExperimentConfig",
    "MethodAggregate",
    "RunRecord",
    "aggregate_records",
    "clear_truth_cache",
    "execute_run",
    "run_experiment",
    "set_truth_cache_limit",
    "truth_cache_stats",
    "SweepGrid",
    "SweepCellResult",
    "run_sweep",
    "sweep_to_csv",
    "best_method_per_cell",
    "TableSettings",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_table5",
    "Figure3Settings",
    "Figure4Settings",
    "figure3_series",
    "figure4_render",
    "format_figure3",
    "EvaluationConfig",
]
