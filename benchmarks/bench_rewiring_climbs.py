"""Whole-cell rewiring climbs: does ``auto`` pick the faster core?

ROADMAP aim 1 asks that the ``auto`` thresholds win on whole cells, not on
single calibration climbs.  This bench captures the rewiring climbs that
perfbench's ``cell`` and ``sweep-pool`` shapes run (``SHAPES`` in
``perfbench/workloads.py``, read but not changed): ``RewiringEngine`` is
wrapped where ``repro.restore.restorer`` and ``repro.restore.gjoka`` look
it up, as perfbench's tracer does, while ``run_experiment`` runs the cell
and a serial ``run_sweep`` runs the sweep.  Each set of climbs is then
replayed on both cores, :data:`ROUNDS` times, alternating which core goes
first; a climb's time covers building its engine and core and running it.
The bench asserts

* identical reports, traces and final graphs on both cores, with the
  report equal to the captured run's;
* that the core ``auto`` picked for a set's climbs is the faster one on
  that set (median seconds over the rounds).

Each climb's attempts and accepts, and each set's seconds on each core,
are written to ``results/bench_rewiring_climbs.{json,txt}``.

Run from the repository root (about a minute on 2 CPUs; capturing also
runs the shapes' property evaluations):

    PYTHONPATH=src python -m pytest benchmarks/bench_rewiring_climbs.py -q
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import inspect
import pathlib
import statistics
import time
from dataclasses import dataclass

from conftest import write_json, write_result

import repro.restore.gjoka as gjoka
import repro.restore.restorer as restorer
from repro.dk.rewiring import RewiringEngine, RewiringReport
from repro.graph.multigraph import MultiGraph

ROUNDS = 3
CORES = ("csr", "python")
#: The cheap sampled evaluation perfbench's sweep runs with.
SWEEP_EVALUATION = dict(
    exact_threshold=400, path_sources=96, betweenness_pivots=48, seed=7
)


def _perfbench_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Climb:
    """One captured climb: the engine's arguments as they were at
    construction (graph and ``rng`` copied), its ``run`` options, the core
    ``auto`` picked and the report."""

    method: str
    arguments: dict
    options: dict
    backend: str
    report: RewiringReport


def capture(body) -> list[Climb]:
    """The climbs ``body()`` runs through the restorer and gjoka."""
    climbs: list[Climb] = []
    engine_signature = inspect.signature(RewiringEngine)
    run_signature = inspect.signature(RewiringEngine.run)

    def capturing(method: str) -> type:
        class Capturing(RewiringEngine):
            def __init__(self, *args, **kwargs) -> None:
                bound = engine_signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._arguments = dict(
                    bound.arguments,
                    graph=bound.arguments["graph"].copy(),
                    rng=copy.deepcopy(bound.arguments["rng"]),
                )
                super().__init__(*args, **kwargs)

            def run(self, *args, **kwargs) -> RewiringReport:
                report = super().run(*args, **kwargs)
                bound = run_signature.bind(self, *args, **kwargs)
                bound.apply_defaults()
                options = {k: v for k, v in bound.arguments.items() if k != "self"}
                climbs.append(
                    Climb(method, self._arguments, options, self.backend, report)
                )
                return report

        return Capturing

    saved = restorer.RewiringEngine, gjoka.RewiringEngine
    restorer.RewiringEngine = capturing("proposed")
    gjoka.RewiringEngine = capturing("gjoka")
    try:
        body()
    finally:
        restorer.RewiringEngine, gjoka.RewiringEngine = saved
    return climbs


def fingerprint(graph: MultiGraph) -> str:
    """SHA-256 of the adjacency in node and neighbor insertion order."""
    rows = [(u, graph.neighbor_multiplicities(u)) for u in graph.nodes()]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def replay(climb: Climb, backend: str) -> tuple[float, tuple]:
    """Seconds and ``(report, trace, graph fingerprint)`` of one climb."""
    arguments = dict(
        climb.arguments,
        graph=climb.arguments["graph"].copy(),
        rng=copy.deepcopy(climb.arguments["rng"]),
        backend=backend,
        record_trace=True,
    )
    start = time.perf_counter()
    engine = RewiringEngine(**arguments)
    report = engine.run(**climb.options)
    seconds = time.perf_counter() - start
    return seconds, (report, engine.trace, fingerprint(arguments["graph"]))


def cell_climbs(shape: dict, seed: int) -> list[Climb]:
    from repro.experiments.runner import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        dataset=shape["dataset"],
        fraction=shape["fraction"],
        runs=shape["runs"],
        rc=shape["rc"],
        scale=shape["scale"],
        seed=seed,
    )
    return capture(lambda: run_experiment(config))


def sweep_climbs(shape: dict, seed: int) -> list[Climb]:
    from repro.api import RunContext
    from repro.experiments.sweeps import SweepGrid, run_sweep
    from repro.metrics.suite import EvaluationConfig

    grid = SweepGrid(
        datasets=shape["datasets"],
        fractions=shape["fractions"],
        rcs=shape["rcs"],
        runs=1,
        scale=shape["scale"],
        evaluation=EvaluationConfig(**SWEEP_EVALUATION),
    )
    return capture(lambda: run_sweep(grid, context=RunContext(jobs=1, seed=seed)))


def test_bench_rewiring_climbs():
    workloads = _perfbench_workloads()
    shapes, seed = workloads.SHAPES, workloads.CELL_SEED
    sets = {
        "cell": cell_climbs(shapes["cell"]["full"], seed),
        "sweep-pool": sweep_climbs(shapes["sweep-pool"]["full"], seed),
    }
    seconds: dict[str, dict[str, list[float]]] = {
        name: {core: [] for core in CORES} for name in sets
    }
    outcomes: dict[tuple[str, str], list[tuple]] = {}
    for round_ in range(ROUNDS):
        order = CORES if round_ % 2 == 0 else CORES[::-1]
        for name, climbs in sets.items():
            for core in order:
                timed = [replay(climb, core) for climb in climbs]
                seconds[name][core].append(sum(t for t, _ in timed))
                outcomes.setdefault((name, core), [outcome for _, outcome in timed])

    payload: dict = {"rounds": ROUNDS, "sets": {}}
    lines = [
        f"Rewiring climbs of perfbench's shapes, replayed on both cores "
        f"({ROUNDS} alternating rounds; seconds per set, core built and run)",
        "",
        f"{'set':<11} {'climbs':>6} {'attempts':>17} {'accepts':>8} {'auto':>6}"
        f" {'csr s':>7} {'python s':>8}  faster",
    ]
    for name, climbs in sets.items():
        for i, climb in enumerate(climbs):
            py, csr = outcomes[name, "python"][i], outcomes[name, "csr"][i]
            assert py == csr, f"{name} climb {i}: the cores differ"
            assert py[0] == climb.report, f"{name} climb {i}: replay differs"
        picks = {climb.backend for climb in climbs}
        assert len(picks) == 1, f"{name}: auto picked {sorted(picks)}"
        (pick,) = picks
        median = {core: statistics.median(seconds[name][core]) for core in CORES}
        faster = min(CORES, key=median.__getitem__)
        attempts = [climb.report.attempts for climb in climbs]
        payload["sets"][name] = {
            "auto": pick,
            "faster": faster,
            "seconds": seconds[name],
            "median_seconds": median,
            "climbs": [
                {
                    "method": climb.method,
                    "candidates": climb.report.num_candidates,
                    "attempts": climb.report.attempts,
                    "accepted": climb.report.accepted,
                    "initial_distance": climb.report.initial_distance,
                    "final_distance": climb.report.final_distance,
                    "trace_sha256": hashlib.sha256(
                        repr(outcomes[name, "csr"][i][1]).encode("utf-8")
                    ).hexdigest(),
                    "graph_sha256": outcomes[name, "csr"][i][2],
                }
                for i, climb in enumerate(climbs)
            ],
        }
        span = f"{min(attempts)}-{max(attempts)}"
        accepts = sum(climb.report.accepted for climb in climbs)
        lines.append(
            f"{name:<11} {len(climbs):>6} {span:>17} {accepts:>8} {pick:>6}"
            f" {median['csr']:>7.3f} {median['python']:>8.3f}  {faster}"
        )
    for name in sets:
        for core in CORES:
            rounds = " ".join(f"{s:.3f}" for s in seconds[name][core])
            lines.append(f"  {name} on {core}: {rounds} s")
    text = "\n".join(lines)
    print("\n" + text)
    write_result("bench_rewiring_climbs.txt", text)
    write_json("bench_rewiring_climbs.json", payload)

    for name, entry in payload["sets"].items():
        assert entry["auto"] == entry["faster"], (
            f"{name}: auto picks {entry['auto']}, but {entry['faster']} is "
            f"faster ({entry['median_seconds']})"
        )
