"""One fresh interpreter: set up a workload, time one unit, check it.

``run.py`` starts this file once per repetition, so no cache, pool or
failure carries from one repetition or workload to the next.  Usage::

    python3 perfbench/child.py '<json spec>' RESULT_PATH

The spec names the workload, shape, seed and mode (``setup`` stops after
set-up; ``rep`` times one unit; ``serial`` times one unit of the sweep on
one process), whether to trace, and whether to run the slower checks.
The result is written as JSON to RESULT_PATH; its ``windows`` give the
``perf_counter`` start and end of set-up and unit, so that ``run.py`` can
scale each duration by the host speed it probed in that window.  Set-up
and checks run on the first of the CPUs ``run.py`` pinned this process
to; only the unit (a pool's sweep) spreads over all of them.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402


def main(spec: dict) -> dict:
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    import repro  # noqa: F401  (set-up includes the package import)

    import tracing
    import workloads

    out: dict = {"traced": spec["traced"]}
    tracer = patches = None
    install_s = 0.0
    if spec["traced"]:
        begin = time.perf_counter()
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, parent_only=spec["workload"] == "sweep-pool")
        install_s = time.perf_counter() - begin
    from repro.experiments.runner import truth_cache_stats

    truth_before = truth_cache_stats()
    shape = workloads.SHAPES[spec["workload"]][spec["shape"]]
    kind = workloads.WORKLOADS[spec["workload"]]
    workload = kind(shape, spec["seed"], jobs=1) if spec["mode"] == "serial" else kind(shape, spec["seed"])
    outcome = workloads.Outcome(workloads.ops_per_rep(spec["workload"], spec["shape"]))
    try:
        workload.prepare()
        prepared = time.perf_counter()
        out["setup_s"] = prepared - START - install_s
        out["windows"] = {"setup": [START, prepared]}
        if spec["mode"] == "setup":
            return out
        with tempfile.TemporaryDirectory(dir=spec["scratch"]) as scratch:
            extra = {}
            if spec["workload"] == "sweep-pool":
                extra["checkpoint"] = os.path.join(scratch, "sweep.csv")
            root = tracer.begin("bench.unit", op="unit") if tracer is not None else None
            os.sched_setaffinity(0, cpus)
            begin = time.perf_counter()
            workload.unit(tracer=tracer, **extra)
            out["unit_s"] = time.perf_counter() - begin
            os.sched_setaffinity(0, {min(cpus)})
            window = (begin, begin + out["unit_s"])
            out["windows"]["unit"] = list(window)
            if tracer is not None:
                tracer.end(root)
                patches.restore()
            truth_after = truth_cache_stats()
            # before the checks, whose direct restore is not the workload's
            out["peak_rss_mb"] = workloads.peak_rss_mb() + getattr(workload, "children_mb", 0.0)
            workload.check(outcome, full=spec["full_checks"], window=window)
        if tracer is not None:
            layers = tracing.summarize(tracer, window)
            layers["experiments.truth_hits"] = truth_after["hits"] - truth_before["hits"]
            layers["experiments.truth_misses"] = truth_after["misses"] - truth_before["misses"]
            out["layers"] = layers
            tracer.write(spec["trace_path"])
    except Exception:
        outcome.fail(traceback.format_exc(), outcome.attempted)
    finally:
        if patches is not None:
            patches.restore()
        workload.close()
    out.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.failures,
        values=outcome.values,
        samples=outcome.samples,
        digest=outcome.digest,
    )
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)
    sys.exit(1 if result.get("failed") else 0)
