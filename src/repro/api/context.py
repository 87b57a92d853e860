"""The :class:`RunContext`: one frozen description of *how* a run executes.

The experiment harness used to re-thread ``backend`` / ``seed`` / ``jobs``
through five ad-hoc config dataclasses; the :class:`RunContext` collapses
that plumbing into a single immutable value that travels with the work:

* ``backend`` — the compute backend every property evaluation and rewiring
  climb resolves against (``"auto" | "python" | "csr"``),
* ``seed`` — the base seed from which every cell and run seed is *spawned*
  deterministically (see below),
* ``exact_paths`` — opt-in exact all-pairs shortest paths (the streaming
  histogram kernels make this feasible at 10^5-node scale),
* ``jobs`` — worker-process count for the local process pool
  (:class:`~repro.api.scheduler.LocalPoolTransport`),
* ``workers`` — coordinator addresses for the distributed tier
  (:mod:`repro.api.distributed`); when set, execution shards across
  ``repro worker`` agents instead of a local pool.

Seed-spawning contract
----------------------
All randomness is derived *before* any cell executes, so execution order —
serial loop or process pool, any worker interleaving — cannot change a
result:

* cell ``i`` of a sweep gets ``seed_for(i)``, a child of the base seed via
  :class:`numpy.random.SeedSequence` (stable across platforms and numpy
  versions),
* run ``j`` inside a cell gets ``spawn_seeds(cell_seed, runs)[j]``, a child
  of the *cell* seed.

Because a cell's outcome is a pure function of its materialized
:class:`~repro.experiments.runner.ExperimentConfig`, serial and parallel
sweeps are bit-identical on fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExperimentError
from repro.sampling.faults import FaultPolicy

if TYPE_CHECKING:  # avoid a runtime cycle: runner imports spawn_seeds
    from collections.abc import Iterable

    from repro.experiments.runner import ExperimentConfig

_BACKENDS = ("auto", "python", "csr")
_U64 = 0xFFFFFFFFFFFFFFFF


def spawn_seeds(base: int, n: int, *path: int) -> list[int]:
    """``n`` independent child seeds of ``base`` at coordinate ``path``.

    A thin wrapper over :class:`numpy.random.SeedSequence`, whose hashing
    is documented stable across platforms and releases — the property the
    serial↔parallel bit-identity contract rests on.  Negative entropy
    values are masked into the uint64 domain SeedSequence accepts.
    """
    entropy = [base & _U64, *(p & _U64 for p in path)]
    ss = np.random.SeedSequence(entropy)
    return [int(s) for s in ss.generate_state(n, np.uint64)]


@dataclass(frozen=True)
class RunContext:
    """Execution context shared by every cell of a harness invocation.

    Parameters
    ----------
    backend:
        Compute backend for property evaluation *and* the generative
        methods' rewiring (``"auto"`` evaluates on the CSR engine and
        picks the rewiring core by its attempt budget).  A cell whose
        config pins its own backend keeps it; ``None`` backends are
        filled from here.
    seed:
        Base seed; per-cell and per-run seeds are spawned from it (module
        docstring has the contract).
    exact_paths:
        When true, the shortest-path triple (l̄, {P(l)}, l_max) is computed
        from *all* sources instead of the sampled protocol, regardless of
        graph size.  On the CSR backend the histogram streams, so the
        (sources × nodes) distance matrix is never materialized.
    jobs:
        Worker processes; ``1`` runs serially in process, more spreads
        every cell's runs over a pool (:func:`repro.api.run.map_cells`).
        Either way results arrive in deterministic cell order.
    workers:
        ``"host:port"`` coordinator addresses for multi-host execution,
        one entry per expected ``repro worker`` agent (repeat an address
        to expect several agents on it).  When set, the sweep runs on
        the distributed tier (:mod:`repro.api.distributed`) instead of a
        local pool — mutually exclusive with ``jobs > 1``, since the
        agents *are* the parallelism.  Shared-memory publication is
        per-host and therefore skipped; remote agents rebuild datasets,
        snapshots, and truth PropertySets through the same per-process
        name-keyed caches local pool workers use, so results stay
        bit-identical.  ``None`` (the default) means local execution.
    fault_policy:
        Imperfect-crawler regime every cell crawls under
        (:mod:`repro.sampling.faults`).  ``None`` — the default — is
        ideal crawling.  A cell whose config pins its own policy keeps
        it; like ``backend``, only ``None`` config policies are filled
        from here (pin ``FaultPolicy()``, the null policy, on a config
        to force ideal crawling under a faulty context).  Fault
        randomness rides dedicated children of the pre-spawned run
        seeds, so every ``(seed, policy)`` sweep is deterministic and
        ``jobs=N`` stays bit-identical to serial.
    """

    backend: str = "auto"
    seed: int = 1
    exact_paths: bool = False
    jobs: int = 1
    fault_policy: FaultPolicy | None = None
    workers: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ExperimentError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")
        if self.workers is not None:
            from repro.api.distributed import parse_address

            workers = tuple(self.workers)
            if not workers:
                raise ExperimentError(
                    "workers must list at least one host:port address "
                    "(or be None for local execution)"
                )
            for address in workers:
                parse_address(address)
            if self.jobs > 1:
                raise ExperimentError(
                    "jobs > 1 and workers are mutually exclusive: the "
                    "worker agents are the parallelism"
                )
            object.__setattr__(self, "workers", workers)

    # ------------------------------------------------------------------
    # parallel shape
    # ------------------------------------------------------------------
    @property
    def parallelism(self) -> int:
        """How many items can execute at once under this context."""
        if self.workers:
            return len(self.workers)
        return self.jobs

    # ------------------------------------------------------------------
    # seed spawning
    # ------------------------------------------------------------------
    def seed_for(self, *path: int) -> int:
        """Deterministic child seed for the cell at coordinate ``path``."""
        return spawn_seeds(self.seed, 1, *path)[0]

    # ------------------------------------------------------------------
    # config threading
    # ------------------------------------------------------------------
    def configure(self, config: "ExperimentConfig") -> "ExperimentConfig":
        """``config`` with this context's execution fields threaded in.

        The config's own choices win where it made one: an explicit
        ``config.backend`` is kept, only ``None`` is filled from the
        context; ``exact_paths`` is sticky (the context can turn it on,
        never off); a ``None`` ``config.fault_policy`` is filled from
        the context's crawl regime.  The cell seed is left untouched —
        sweep builders assign it via :meth:`seed_for` when materializing
        cells.
        """
        backend = config.backend if config.backend is not None else self.backend
        fault_policy = (
            config.fault_policy
            if config.fault_policy is not None
            else self.fault_policy
        )
        evaluation = config.evaluation
        if self.exact_paths and not evaluation.exact_paths:
            evaluation = replace(evaluation, exact_paths=True)
        if (
            backend == config.backend
            and evaluation is config.evaluation
            and fault_policy == config.fault_policy
        ):
            return config
        return replace(
            config,
            backend=backend,
            evaluation=evaluation,
            fault_policy=fault_policy,
        )

    def materialize(self, configs: "Iterable[ExperimentConfig]") -> "list[ExperimentConfig]":
        """Cell list ready for an executor: configured, per-cell seeded.

        Cell ``i`` gets :meth:`seed_for`\\ ``(i)`` in enumeration order —
        the single point where sweep position turns into randomness, so
        every harness module derives seeds identically.
        """
        return [
            replace(self.configure(config), seed=self.seed_for(index))
            for index, config in enumerate(configs)
        ]
