"""Experiment harness: regenerate every table and figure of the paper.

The harness follows the paper's protocol (Section V-D): per run a seed node
is drawn uniformly at random; BFS, snowball, forest fire, and the random
walk all start from that seed; subgraph sampling by RW, Gjoka et al., and
the proposed method consume *the same walk* so the comparison isolates the
generation method rather than the sample.

Entry points (the unified facade is :mod:`repro.api` — start there):

* :mod:`repro.experiments.runner` — single experiment cells,
* :mod:`repro.experiments.sweeps` — cartesian grids through the executor,
* :mod:`repro.experiments.tables` — Table II / III / IV / V rows,
* :mod:`repro.experiments.figures` — Figure 3 series and Figure 4 SVGs,
* :mod:`repro.experiments.ablations` — design-choice ablations,
* ``python -m repro.cli`` — command-line front end.

Execution (backend, base seed, evaluation mode, worker count) is described
by a :class:`repro.api.RunContext`; every module here takes one via its
``context=`` parameter and routes cell execution through the context's
executor.
"""

from repro.experiments.methods import (
    METHOD_NAMES,
    SUBGRAPH_METHODS,
    GENERATIVE_METHODS,
    MethodOutput,
    run_methods_once,
)
from repro.experiments.runner import (
    ExperimentConfig,
    MethodAggregate,
    run_experiment,
)
from repro.experiments.sweeps import (
    SweepCellResult,
    SweepGrid,
    run_sweep,
    sweep_to_csv,
)

__all__ = [
    "METHOD_NAMES",
    "SUBGRAPH_METHODS",
    "GENERATIVE_METHODS",
    "MethodOutput",
    "run_methods_once",
    "ExperimentConfig",
    "MethodAggregate",
    "run_experiment",
    "SweepGrid",
    "SweepCellResult",
    "run_sweep",
    "sweep_to_csv",
]
