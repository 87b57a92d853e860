"""The three workloads, each run in a fresh interpreter by ``child.py``.

A workload goes through four steps: ``prepare`` (the set-up a user pays
once per process, after ``import repro``), ``unit`` (the timed phase),
``check`` (output checks, outside the timed phase) and ``close``.  Every
input derives from the workload seed; the program sees only the generated
configs and requests.

Why these workloads (README.md has the measurements behind each choice):

* ``cell`` is the harness's unit of work: one paper cell, serial, in
  process.  The cell pins the paper cell's crawl seed (1), because crawl
  seeds move the restored graphs' size by ~30 % between seeds, more than
  any bound may allow; the workload seed drives the 12-property
  evaluation's sampling seed instead.
* ``serve-restore`` is restoration as a service: cold ``restore``
  requests for a fixed seed list (the CSR rewiring core, no property
  evaluation) with cache hits replayed between them.  The workload seed
  orders the cold requests and picks which answered request each hit
  replays.
* ``sweep-pool`` is the only workload through ``repro.api``: a 48-cell
  sweep on a 2-process pool with shared-memory publication and a CSV
  checkpoint.  Like ``cell`` it pins the crawls, through the sweep's base
  seed (1): over five workload seeds as base seeds the sweep's own work
  moved its wall time by 11 % and its mean restore time by 20 % (IQR over
  median), while repetitions of one seed agreed within 2 %.  The workload
  seed drives the sampled evaluation's seed instead.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import random
import resource
import statistics
import threading
import time

SHAPES = {
    "cell": {
        "full": {"dataset": "anybeat", "scale": 1.0, "fraction": 0.10, "rc": 50.0, "runs": 2},
        "tiny": {"dataset": "anybeat", "scale": 0.2, "fraction": 0.10, "rc": 2.0, "runs": 1},
    },
    "serve-restore": {
        "full": {
            "dataset": "youtube",
            "scale": 1.0,
            "fraction": 0.10,
            "rc": 50.0,
            "cold_seeds": (1, 2, 3, 4, 5, 6),
            "hits_per_cold": 200,
        },
        "tiny": {
            "dataset": "youtube",
            "scale": 0.1,
            "fraction": 0.10,
            "rc": 2.0,
            "cold_seeds": (1, 2),
            "hits_per_cold": 20,
        },
    },
    "sweep-pool": {
        "full": {
            "datasets": ("anybeat", "brightkite", "epinions", "youtube"),
            "scale": 0.1,
            "fractions": (0.02, 0.04, 0.06, 0.08, 0.10, 0.12),
            "rcs": (5.0, 10.0),
            "jobs": 2,
        },
        "tiny": {
            "datasets": ("anybeat", "brightkite"),
            "scale": 0.05,
            "fractions": (0.10, 0.20),
            "rcs": (2.0,),
            "jobs": 2,
        },
    },
}

#: The paper cell's seed (``ExperimentConfig``'s default); also the
#: sweep's base seed.
CELL_SEED = 1
#: Per-request server-side deadline; a request that misses it is failed.
REQUEST_TIMEOUT_S = 120.0
#: Memo lookups timed for the harness's ``hit_p50_ms``: blocks of
#: consecutive lookups with a pause before each.  One process's lookups
#: moved by up to 25 % from one half second to the next, as much as
#: between processes, so the blocks spread over 1.6 s.
MEMO_BLOCKS = 40
MEMO_BLOCK_SIZE = 51
MEMO_PAUSE_S = 0.04
#: Service cache hits go out in bursts with a client pause between, so a
#: cold request's hits span several of the host's speed phases.
HIT_BURST = 25
HIT_PAUSE_S = 0.03
#: Fields of a restore summary that are measurements, not results.
TIMING_FIELDS = ("total_seconds", "rewiring_seconds", "phase_seconds")


def ops_per_rep(workload: str, shape: str) -> int:
    """Operations one unit attempts: method-runs, requests, or cells."""
    s = SHAPES[workload][shape]
    if workload == "cell":
        return s["runs"] * 6
    if workload == "serve-restore":
        return len(s["cold_seeds"]) * (1 + s["hits_per_cold"])
    return len(s["datasets"]) * len(s["fractions"]) * len(s["rcs"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def memo_hits(configs) -> list[list[list[float]]]:
    """Latencies of the harness's cached read path, the dataset registry
    and the truth memo, as a repeated cell pays it (all must be hits).

    The lookups run in blocks spread over 1.6 s, so that the mean of
    block medians weighs the host's fast and slow phases by their share
    of time rather than by whichever phase one tight loop hit.  Returns
    ``[start, ms]`` per lookup, one list per block.
    """
    import repro.graph.datasets as datasets
    from repro.experiments.runner import cell_truth

    blocks = []
    for block in range(MEMO_BLOCKS):
        time.sleep(MEMO_PAUSE_S)
        samples = []
        for i in range(MEMO_BLOCK_SIZE):
            config = configs[(block + i) % len(configs)]
            start = time.perf_counter()
            cell_truth(config, datasets.load_dataset(config.dataset, scale=config.scale))
            samples.append([start, (time.perf_counter() - start) * 1e3])
        blocks.append(samples)
    return blocks


class Outcome:
    """What one unit produced: failures, values, and samples.

    ``samples["restore"]`` holds ``[start, end, seconds]`` per restoration
    time, the window naming when it was spent; ``samples["hits"]`` holds
    blocks of ``[start, ms]`` cache-hit latencies.
    """

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = 0
        self.failures: list[str] = []
        self.values: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.digest: str | None = None

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + operations)
        self.failures.append(message)


# ----------------------------------------------------------------------
class Cell:
    """One paper cell through ``run_experiment``, serial and in process."""

    def __init__(self, shape: dict, seed: int) -> None:
        self.shape = shape
        self.seed = seed

    def prepare(self) -> None:
        import repro.graph.datasets as datasets
        from repro.experiments.runner import ExperimentConfig, cell_truth
        from repro.metrics.suite import EvaluationConfig

        s = self.shape
        self.config = ExperimentConfig(
            dataset=s["dataset"],
            fraction=s["fraction"],
            runs=s["runs"],
            rc=s["rc"],
            scale=s["scale"],
            seed=CELL_SEED,
            evaluation=EvaluationConfig(seed=self.seed),
        )
        graph = datasets.load_dataset(s["dataset"], scale=s["scale"])
        cell_truth(self.config, graph)

    def unit(self, tracer=None) -> None:
        import repro.experiments.methods as methods
        from repro.experiments.runner import run_experiment

        # note when each proposed restoration ran, so that its time can be
        # scaled by the host speed of its own window
        self.restores: list[list[float]] = []
        original = methods.restore_from_walk

        def noted(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.restores.append([start, time.perf_counter(), result.total_seconds])
            return result

        methods.restore_from_walk = noted
        try:
            self.aggregates = run_experiment(self.config)
        finally:
            methods.restore_from_walk = original

    def check(self, outcome: Outcome, full: bool, window: tuple[float, float]) -> None:
        from repro.experiments.report import results_to_csv

        outcome.digest = digest(
            results_to_csv({"cell": self.aggregates}, include_timings=False)
        )
        runs = self.config.runs
        for method, agg in self.aggregates.items():
            if not math.isfinite(agg.average_l1):
                outcome.fail(f"{method}: average L1 is not finite", runs)
        proposed = self.aggregates["proposed"]
        outcome.values["quality.avg_l1"] = proposed.average_l1
        outcome.values["quality.rewire_l1"] = proposed.per_property["degree_clustering"]
        noted = [seconds for _, _, seconds in self.restores]
        if len(noted) != runs or not math.isclose(statistics.fmean(noted), proposed.total_seconds, rel_tol=1e-6):
            outcome.fail("the noted restorations do not add up to the cell's generation time")
        outcome.samples["restore"] = list(self.restores)
        outcome.samples["hits"] = memo_hits([self.config])

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class ServeRestore:
    """An in-process ``ReproService(jobs=1)`` and one closed-loop client
    connection, both on one event loop run by a background thread."""

    def __init__(self, shape: dict, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        self.loop = None
        self.service = None

    def params(self, seed: int) -> dict:
        s = self.shape
        return {
            "dataset": s["dataset"],
            "scale": s["scale"],
            "fraction": s["fraction"],
            "rc": s["rc"],
            "seed": seed,
        }

    def prepare(self) -> None:
        import asyncio

        import repro.graph.datasets as datasets
        from repro.service.server import ReproService

        datasets.load_dataset(self.shape["dataset"], scale=self.shape["scale"])
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.service = ReproService(jobs=1)
        self._call(self.service.start("127.0.0.1", 0))

    def _call(self, coro, timeout: float | None = 60.0):
        import asyncio

        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def unit(self, tracer=None) -> None:
        self._call(self._stream(tracer), timeout=None)
        self.stats = self.service.stats()

    async def _stream(self, tracer) -> None:
        """The closed-loop client, a coroutine on the service's own event
        loop: a hit's round trip is the service's read path and loopback
        I/O, with no wake-up of a second client thread in it."""
        import asyncio

        from repro.service.client import AsyncServiceClient
        from repro.service.protocol import normalize_request, request_key

        rng = random.Random(self.seed)
        cold = list(self.shape["cold_seeds"])
        rng.shuffle(cold)
        self.cold: list[tuple[dict, dict]] = []  # (params, response)
        self.restores: list[list[float]] = []  # [start, end, seconds]
        self.hits: list[tuple[int, dict]] = []  # (index into cold, response)
        self.hit_blocks: list[list[list[float]]] = []  # [start, ms] per hit
        self.errors: list[str] = []
        client = await AsyncServiceClient.connect(self.service.host, self.service.port)
        try:
            for seed in cold:
                params = self.params(seed)
                key = request_key("restore", normalize_request("restore", params))
                response, start, seconds = await self._request(client, params, key, tracer)
                if response is None:
                    continue
                self.cold.append((params, response))
                self.restores.append([start, start + seconds, seconds])
                block = []
                for i in range(self.shape["hits_per_cold"]):
                    if i and i % HIT_BURST == 0:
                        await asyncio.sleep(HIT_PAUSE_S)
                    index = rng.randrange(len(self.cold))
                    response, start, seconds = await self._request(
                        client, self.cold[index][0], None, tracer
                    )
                    if response is not None:
                        self.hits.append((index, response))
                        block.append([start, seconds * 1e3])
                self.hit_blocks.append(block)
        finally:
            await client.close()

    async def _request(self, client, params, key, tracer):
        from repro.errors import ReproError

        span = tracer.begin("bench.request", op=key) if tracer is not None else None
        start = time.perf_counter()
        try:
            response = await client.request("restore", params, timeout=REQUEST_TIMEOUT_S)
        except (ReproError, OSError) as exc:
            self.errors.append(f"seed {params['seed']}: {type(exc).__name__}: {exc}")
            return None, start, 0.0
        finally:
            if span is not None:
                tracer.end(span)
        return response, start, time.perf_counter() - start

    def check(self, outcome: Outcome, full: bool, window: tuple[float, float]) -> None:
        from repro.service.protocol import canonical_json

        for message in self.errors:
            outcome.fail(message)
        expected = [canonical_json(response) for _, response in self.cold]
        mismatched = sum(
            canonical_json(response) != expected[index] for index, response in self.hits
        )
        if mismatched:
            outcome.fail(f"{mismatched} cache hits differ from their cold response", mismatched)
        # the deterministic part of every cold response, in seed order: the
        # same in every repetition, traced or not
        by_seed = sorted(
            (params["seed"], _deterministic(response["summary"]))
            for params, response in self.cold
        )
        outcome.digest = digest(canonical_json(by_seed))
        distances = [r["summary"]["rewiring_final_distance"] for _, r in self.cold]
        outcome.values["quality.rewire_l1"] = statistics.fmean(distances) if distances else math.nan
        outcome.samples["restore"] = list(self.restores)
        # one block per cold request: the hits replayed right after it
        outcome.samples["hits"] = list(self.hit_blocks)
        outcome.values["cache_hits"] = self.stats["cache"]["hits"]
        outcome.values["cache_misses"] = self.stats["cache"]["misses"]
        if full:
            self._check_direct(outcome)

    def _check_direct(self, outcome: Outcome) -> None:
        """A direct ``restore_graph`` call agrees with the service, and its
        graph keeps the sample and realizes its targets exactly."""
        import repro.graph.datasets as datasets
        from repro.metrics.basic import degree_vector, joint_degree_matrix
        from repro.metrics.suite import (
            EvaluationConfig,
            average_l1,
            compute_properties,
            l1_distances,
        )
        from repro.restore.restorer import restore_graph
        from repro.sampling.access import GraphAccess

        seed = self.shape["cold_seeds"][0]
        served = [r for p, r in self.cold if p["seed"] == seed]
        s = self.shape
        graph = datasets.load_dataset(s["dataset"], scale=s["scale"])
        target = max(3, int(round(s["fraction"] * graph.num_nodes)))
        result = restore_graph(GraphAccess(graph), target, rc=s["rc"], rng=seed, backend="auto")
        if not served or _deterministic(served[0]["summary"]) != _deterministic(result.summary()):
            outcome.fail(f"direct restore_graph(seed={seed}) differs from the service")
        restored = result.graph
        if not all(restored.has_edge(u, v) for u, v in result.subgraph.graph.edges()):
            outcome.fail("restored graph lost a sampled-subgraph edge")
        counts = {k: c for k, c in result.degree_targets.counts.items() if c > 0}
        if degree_vector(restored) != counts:
            outcome.fail("restored graph misses its target degree vector")
        if joint_degree_matrix(restored) != result.jdm_targets:
            outcome.fail("restored graph misses its target JDM")
        evaluation = EvaluationConfig()
        truth = compute_properties(graph, evaluation)
        outcome.values["quality.avg_l1"] = average_l1(
            l1_distances(truth, compute_properties(restored, evaluation))
        )

    def close(self) -> None:
        if self.service is not None:
            self._call(self.service.drain())
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()


def _deterministic(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k not in TIMING_FIELDS}


# ----------------------------------------------------------------------
class SweepPool:
    """A pooled ``run_sweep`` with a CSV checkpoint, as a user runs it."""

    def __init__(self, shape: dict, seed: int, jobs: int | None = None) -> None:
        self.shape = shape
        self.seed = seed
        self.jobs = shape["jobs"] if jobs is None else jobs

    def prepare(self) -> None:
        from repro.experiments.sweeps import SweepGrid
        from repro.metrics.suite import EvaluationConfig

        s = self.shape

        # the benches' sampled evaluation keeps the small graphs' cost flat
        self.grid = SweepGrid(
            datasets=s["datasets"],
            fractions=s["fractions"],
            rcs=s["rcs"],
            runs=1,
            scale=s["scale"],
            evaluation=EvaluationConfig(
                exact_threshold=400, path_sources=96, betweenness_pivots=48, seed=self.seed
            ),
        )

    def unit(self, tracer=None, checkpoint: str | None = None) -> None:
        from repro.api import RunContext
        from repro.experiments.sweeps import run_sweep

        self.checkpoint = checkpoint
        self.shm_before = _shm_entries()
        with ChildMemory() as memory:
            self.results = run_sweep(
                self.grid,
                csv_path=checkpoint,
                context=RunContext(jobs=self.jobs, seed=CELL_SEED),
            )
        self.shm_after = _shm_entries()
        self.children_mb = memory.peak_mb

    def check(self, outcome: Outcome, full: bool, window: tuple[float, float]) -> None:
        from repro.experiments.runner import truth_cache_stats
        from repro.experiments.sweeps import sweep_to_csv

        if self.checkpoint is not None:
            with open(self.checkpoint, "rb") as f:
                on_disk = f.read()
            if on_disk != sweep_to_csv(self.results).encode("utf-8"):
                outcome.fail("checkpoint on disk differs from the final sweep_to_csv")
        leaked = sorted(self.shm_after - self.shm_before)
        if leaked:
            outcome.fail(f"/dev/shm gained entries: {leaked}")
        outcome.digest = digest(sweep_to_csv(self.results, include_timings=False))
        proposed = [cell.aggregates["proposed"] for cell in self.results]
        for cell in self.results:
            if not all(math.isfinite(a.average_l1) for a in cell.aggregates.values()):
                outcome.fail(f"{cell.key()}: average L1 is not finite")
        outcome.values["quality.avg_l1"] = statistics.fmean(a.average_l1 for a in proposed)
        outcome.values["quality.rewire_l1"] = statistics.fmean(
            a.per_property["degree_clustering"] for a in proposed
        )
        # cells differ in size, so one sample per sweep: the mean restore
        outcome.samples["restore"] = [
            [*window, statistics.fmean(a.total_seconds for a in proposed)]
        ]
        misses = truth_cache_stats()["misses"]
        configs = list({cell.config.dataset: cell.config for cell in self.results}.values())
        outcome.samples["hits"] = memo_hits(configs)
        if truth_cache_stats()["misses"] != misses:
            outcome.fail("the truth memo missed after the sweep published every truth")

    def close(self) -> None:
        # publication started multiprocessing's resource tracker; stop it
        # and wait for it, so that no process outlives the repetition
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class ChildMemory:
    """Samples the resident-memory high-water mark of child processes.

    A pool's workers are children of this process; each one's ``VmHWM``
    only grows, so the last value read per pid is its peak.  The last, not
    the largest: a child that execs (the shared-memory resource tracker)
    restarts its high-water mark, and the copy of this process it briefly
    was before the exec is not memory the sweep uses.  Sampling runs on a
    thread that sleeps between reads of ``/proc``.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self._peaks: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @property
    def peak_mb(self) -> float:
        return sum(self._peaks.values()) / 1024.0

    def __enter__(self) -> "ChildMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            for pid in _children():
                hwm = _vm_hwm_kb(pid)
                if hwm is not None:
                    self._peaks[pid] = hwm
            if self._stop.wait(self.INTERVAL_S):
                return


def _children() -> set[int]:
    pids: set[int] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path, encoding="ascii") as f:
                pids.update(int(pid) for pid in f.read().split())
        except OSError:
            continue
    return pids


def _vm_hwm_kb(pid: int) -> float | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


WORKLOADS = {"cell": Cell, "serve-restore": ServeRestore, "sweep-pool": SweepPool}
