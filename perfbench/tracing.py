"""Outside-in tracing: spans recorded by wrappers the benchmark installs.

The program has no telemetry of its own yet, so the traced run rebinds the
names callers look up (``module.attr``) to thin wrappers that open a span
around the original call.  Nothing under ``src/`` changes; :meth:`Patches.restore`
puts every original back, so an untraced run in the same process calls the
unwrapped functions again.

A span records its name, start, end, parent span, and the id of the
operation it belongs to.  The parent stack is kept per thread, because
the service computes on its own worker thread.  Spans stay in memory and
are written out once, at the end.  A span's self time is its duration
minus the part of that interval its children cover; the layer of a span
is the first dot-separated part of its name.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict

#: Layers a span name can start with; ``bench`` marks the benchmark's own
#: spans (the timed unit, client requests), which belong to no layer.
LAYERS = (
    "graph",
    "sampling",
    "estimators",
    "restore",
    "dk",
    "engine",
    "metrics",
    "experiments",
    "api",
    "service",
)

#: Kernels ``repro.engine.dispatch.resolve_backend`` is asked about; a
#: call without a kernel counts as ``default``, an unknown one as ``other``.
KERNELS = (
    "degree",
    "jdm",
    "triangles",
    "clustering",
    "knn",
    "shared_partners",
    "spectral",
    "paths",
    "betweenness",
    "walks",
    "rewiring",
    "default",
    "other",
)

#: ``repro.metrics.suite`` name -> property group of the 12-property suite.
PROPERTY_FUNCTIONS = {
    "shortest_path_stats": "paths",
    "degree_dependent_betweenness": "betweenness",
    "largest_eigenvalue": "spectral",
    "network_clustering": "clustering",
    "degree_dependent_clustering": "clustering",
    "shared_partner_distribution": "shared_partners",
    "neighbor_connectivity": "knn",
    "degree_distribution": "degree",
}

# span record fields
NAME, START, END, PARENT, OP, THREAD = range(6)


class Tracer:
    """In-memory span and counter recorder (thread-safe appends)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op=None) -> int:
        """Open a span under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][OP]
        record = [name, self.clock(), None, parent, op, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index``; returns its duration."""
        record = self.spans[index]
        record[END] = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return record[END] - record[START]

    def within(self, prefix: str) -> bool:
        """Whether an open span on this thread has a name starting with
        ``prefix``."""
        return any(self.spans[i][NAME].startswith(prefix) for i in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[START] for span in self.spans)
        events = [
            {
                "name": span[NAME],
                "cat": span[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": ((span[END] or span[START]) - span[START]) * 1e6,
                "pid": 1,
                "tid": span[THREAD],
                "args": {"op": span[OP], "parent": span[PARENT]},
            }
            for span in self.spans
        ]
        return {"traceEvents": events}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.chrome_trace(), f)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0 and span[END] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        if span[END] is None:
            out.append(0.0)
            continue
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def timed(tracer: Tracer, name, fn, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable choosing the name
    at call time.  ``after(result)`` sees each result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name() if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result)
        return result

    return wrapper


class Patches:
    """Rebound module attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @property
    def targets(self) -> list[tuple[object, str, object]]:
        return list(self._saved)


def install(tracer: Tracer, parent_only: bool = False) -> Patches:
    """Rebind every traced boundary; returns the handle that restores them.

    ``parent_only`` is the pooled sweep's set: only functions that the
    parent process alone calls, so forked pool workers inherit no
    wrappers on the code they run.
    """
    patches = Patches()
    load = functools.partial(timed, tracer, "graph.load")
    patches.set("repro.graph.datasets", "load_dataset", load)
    if parent_only:
        _install_pool_parent(tracer, patches)
        return patches
    patches.set("repro.experiments.runner", "load_dataset", load)
    patches.set(
        "repro.experiments.runner",
        "execute_run",
        functools.partial(timed, tracer, "experiments.run"),
    )
    _install_metrics(tracer, patches)
    _install_sampling(tracer, patches)
    _install_restore(tracer, patches)
    _install_engine(tracer, patches)
    _install_service(tracer, patches)
    return patches


def _install_metrics(tracer: Tracer, patches: Patches) -> None:
    def evaluation_name() -> str:
        # the cell's truth is computed outside any run (set-up, memo miss)
        return "metrics.eval" if tracer.within("experiments.run") else "metrics.truth"

    patches.set(
        "repro.experiments.runner",
        "compute_properties",
        lambda f: timed(tracer, evaluation_name, f),
    )
    for attr, group in PROPERTY_FUNCTIONS.items():
        patches.set(
            "repro.metrics.suite",
            attr,
            lambda f, group=group: timed(tracer, f"metrics.{group}", f),
        )


def _install_sampling(tracer: Tracer, patches: Patches) -> None:
    def queried(result) -> None:
        tracer.count("sampling.queried_nodes", len(result.neighbors))

    for module in ("repro.experiments.methods", "repro.restore.restorer"):
        patches.set(
            module, "random_walk", lambda f: timed(tracer, "sampling.walk", f, queried)
        )
    for attr in ("bfs_crawl", "snowball_crawl", "forest_fire_crawl"):
        patches.set(
            "repro.experiments.methods",
            attr,
            lambda f: timed(tracer, "sampling.crawl", f, queried),
        )
    for module in (
        "repro.experiments.methods",
        "repro.restore.restorer",
        "repro.restore.gjoka",
    ):
        patches.set(module, "build_subgraph", lambda f: timed(tracer, "sampling.subgraph", f))


# Stopwatch labels of the restore phases the restore/dk spans also cover.
_PHASES = ("degree_vector", "joint_degree_matrix", "construction", "rewiring")


def _install_restore(tracer: Tracer, patches: Patches) -> None:
    def stopwatch(result) -> None:
        splits = result.stopwatch.splits()
        tracer.count("crosscheck.stopwatch_s", sum(splits.get(p, 0.0) for p in _PHASES))

    for module in ("repro.experiments.methods", "repro.restore.restorer"):
        patches.set(
            module,
            "restore_from_walk",
            lambda f: timed(tracer, "restore.proposed", f, stopwatch),
        )
    patches.set(
        "repro.experiments.methods",
        "gjoka_generate",
        lambda f: timed(tracer, "restore.gjoka", f, stopwatch),
    )
    patches.set("repro.restore.restorer", "restore_graph", lambda f: timed(tracer, "restore.graph", f))
    for module, tag in (("repro.restore.restorer", "proposed"), ("repro.restore.gjoka", "gjoka")):
        names = {
            "estimate_local_properties": "estimators.local",
            "build_target_degree_vector": f"restore.{tag}.degree_vector",
            "build_target_jdm": f"restore.{tag}.jdm",
            "build_graph_from_targets": f"dk.{tag}.construction",
        }
        for attr, name in names.items():
            patches.set(module, attr, lambda f, name=name: timed(tracer, name, f))
        patches.set(module, "RewiringEngine", lambda cls, tag=tag: _traced_engine(tracer, cls, tag))


def _traced_engine(tracer: Tracer, base: type, tag: str) -> type:
    """A ``RewiringEngine`` subclass timing construction and ``run``."""

    class TracedRewiringEngine(base):
        def __init__(self, *args, **kwargs) -> None:
            index = tracer.begin(f"dk.{tag}.rewiring_setup")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end(index)

        def run(self, *args, **kwargs):
            index = tracer.begin(f"dk.{tag}.rewiring")
            try:
                report = super().run(*args, **kwargs)
            finally:
                seconds = tracer.end(index)
            tracer.count(f"dk.{tag}.rewiring_attempts", report.attempts)
            tracer.count(f"dk.{tag}.rewiring_accepted", report.accepted)
            tracer.count(f"dk.{tag}.rewiring_run_s", seconds)
            return report

    TracedRewiringEngine.__name__ = base.__name__
    TracedRewiringEngine.__qualname__ = base.__qualname__
    return TracedRewiringEngine


def _install_engine(tracer: Tracer, patches: Patches) -> None:
    def counted(resolve):
        @functools.wraps(resolve)
        def wrapper(*args, **kwargs):
            choice = resolve(*args, **kwargs)
            kernel = kwargs.get("kernel") or "default"
            if kernel not in KERNELS:
                kernel = "other"
            tracer.count(f"engine.dispatch.{kernel}.{choice}")
            return choice

        return wrapper

    patches.set("repro.engine.dispatch", "resolve_backend", counted)
    patches.set("repro.dk.rewiring", "resolve_backend", counted)

    patches.set("repro.engine.dispatch", "freeze", lambda f: timed(tracer, "engine.freeze", f))


def _install_service(tracer: Tracer, patches: Patches) -> None:
    from repro.service.protocol import request_key

    def traced_run_op(run_op):
        @functools.wraps(run_op)
        def wrapper(op, params):
            # the operation id is the request's content address, which the
            # client computes for its own request span as well
            index = tracer.begin("service.compute", op=request_key(op, params))
            try:
                return run_op(op, params)
            finally:
                tracer.end(index)

        return wrapper

    patches.set("repro.service.server", "run_op", traced_run_op)


def _install_pool_parent(tracer: Tracer, patches: Patches) -> None:
    patches.set("repro.api.workers", "publish_cells", lambda f: timed(tracer, "api.publish", f))

    def checkpoint(result) -> None:
        tracer.count("experiments.checkpoint_bytes", len(result.encode("utf-8")))

    patches.set(
        "repro.experiments.sweeps",
        "sweep_to_csv",
        lambda f: timed(tracer, "experiments.checkpoint", f, checkpoint),
    )

    def traced_map_cells(map_cells):
        @functools.wraps(map_cells)
        def wrapper(cells, context):
            start = tracer.clock()
            index = tracer.begin("api.map")
            try:
                results = map_cells(cells, context)
            finally:
                tracer.end(index)
            return _timed_results(tracer, results, start)

        return wrapper

    patches.set("repro.api.run", "map_cells", traced_map_cells)


def _timed_results(tracer: Tracer, results, start: float):
    """Yield ``results``, timing each blocking ``next`` as ``api.wait``."""
    first = True
    try:
        while True:
            index = tracer.begin("api.wait")
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            if first:
                tracer.count("api.first_cell_s", tracer.clock() - start)
                first = False
            yield item
    finally:
        close = getattr(results, "close", None)
        if close is not None:
            close()


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def summarize(tracer: Tracer, window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Seconds are totals over the repetition (set-up and timed unit);
    ``share.<layer>`` is the layer's self time inside the timed window over
    the window's length, and ``trace.coverage`` is their sum.
    """
    spans = tracer.spans
    total: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    shares: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans), strict=True):
        if span[END] is None:
            continue
        name = span[NAME]
        total[name] += span[END] - span[START]
        calls[name] += 1
        layer = layer_of(name)
        if layer in LAYERS and window[0] <= span[START] and span[END] <= window[1]:
            shares[layer] += own
    counts = tracer.counts
    wall = window[1] - window[0]
    m: dict[str, float] = {"graph.load_s": total["graph.load"]}
    for part in ("walk", "crawl", "subgraph"):
        m[f"sampling.{part}_s"] = total[f"sampling.{part}"]
    m["sampling.queried_nodes"] = counts["sampling.queried_nodes"]
    m["estimators.local_s"] = total["estimators.local"]
    phases = 0.0
    for tag in ("proposed", "gjoka"):
        for part in ("degree_vector", "jdm"):
            m[f"restore.{tag}.{part}_s"] = total[f"restore.{tag}.{part}"]
        run_s = counts[f"dk.{tag}.rewiring_run_s"]
        attempts = counts[f"dk.{tag}.rewiring_attempts"]
        accepted = counts[f"dk.{tag}.rewiring_accepted"]
        m[f"dk.{tag}.construction_s"] = total[f"dk.{tag}.construction"]
        m[f"dk.{tag}.rewiring_s"] = total[f"dk.{tag}.rewiring_setup"] + total[f"dk.{tag}.rewiring"]
        m[f"dk.{tag}.rewiring_attempts"] = attempts
        m[f"dk.{tag}.rewiring_accepted"] = accepted
        m[f"dk.{tag}.accept_ratio"] = accepted / attempts if attempts else 0.0
        m[f"dk.{tag}.attempts_per_s"] = attempts / run_s if run_s else 0.0
        phases += (
            m[f"restore.{tag}.degree_vector_s"]
            + m[f"restore.{tag}.jdm_s"]
            + m[f"dk.{tag}.construction_s"]
            + m[f"dk.{tag}.rewiring_s"]
        )
    m["engine.freeze_s"] = total["engine.freeze"]
    m["engine.freeze_calls"] = calls["engine.freeze"]
    for kernel in KERNELS:
        for choice in ("python", "csr"):
            name = f"engine.dispatch.{kernel}.{choice}"
            m[name] = counts[name]
    m["metrics.truth_s"] = total["metrics.truth"]
    m["metrics.eval_s"] = total["metrics.eval"]
    m["metrics.eval_calls"] = calls["metrics.eval"]
    for group in dict.fromkeys(PROPERTY_FUNCTIONS.values()):
        m[f"metrics.{group}_s"] = total[f"metrics.{group}"]
    m["experiments.run_s"] = total["experiments.run"]
    m["experiments.checkpoint_s"] = total["experiments.checkpoint"]
    m["experiments.checkpoint_bytes"] = counts["experiments.checkpoint_bytes"]
    m["api.publish_s"] = total["api.publish"]
    m["api.first_cell_s"] = counts["api.first_cell_s"]
    m["api.wait_s"] = total["api.wait"]
    m.update(_service(spans))
    for layer in LAYERS:
        m[f"share.{layer}"] = shares[layer] / wall if wall > 0 else 0.0
    m["trace.coverage"] = sum(shares.values()) / wall if wall > 0 else 0.0
    stopwatch = counts["crosscheck.stopwatch_s"]
    m["trace.stopwatch_gap"] = abs(phases - stopwatch) / stopwatch if stopwatch else 0.0
    return m


def _service(spans: list[list]) -> dict[str, float]:
    """Median compute time of a computed request, and the median of its
    round trip minus that compute (both matched by operation id)."""
    compute = {s[OP]: s[END] - s[START] for s in spans if s[NAME] == "service.compute"}
    trips = {
        s[OP]: s[END] - s[START]
        for s in spans
        if s[NAME] == "bench.request" and s[OP] in compute
    }
    if not trips:
        return {"service.compute_s": 0.0, "service.overhead_ms": 0.0}
    return {
        "service.compute_s": statistics.median(compute[op] for op in trips),
        "service.overhead_ms": statistics.median(
            (trips[op] - compute[op]) * 1e3 for op in trips
        ),
    }
