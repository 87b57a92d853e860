"""Repository benchmark: a paper cell, a restore-service stream, a pooled sweep.

Run from the repository root::

    python3 perfbench/run.py --workload cell --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each repetition of a workload runs in a fresh interpreter (``child.py``),
so a crash or a warm cache in one cannot touch another.  Repetitions
continue until their timed phases add up to ``--seconds``; set-up is timed
in fresh interpreters as well.  Each child is pinned to the CPUs its
workload uses, and while it runs this process probes the host's speed on
those CPUs (``speed.py``): every end-to-end timing is reported in
reference seconds, the measured time scaled by the speed probed over the
same window.  With ``--trace 0`` the benchmark prints
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it
alternates untraced and traced repetitions and prints every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when an output check fails and 2 when the benchmark cannot run
here (no ``src/repro``, or ``REPRO_BACKEND`` set); then no result is
printed.  README.md in this directory describes every metric.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import speed
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cell", "serve-restore", "sweep-pool")

#: Repetitions a run makes at least, and set-up samples it collects.
MIN_REPS = 2
SETUP_SAMPLES = 3
#: No repetition starts when it could end after this many seconds.
BUDGET_S = 150.0


class Refused(Exception):
    """The benchmark cannot run in this directory or environment."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its child (run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = preflight(ROOT)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.shape)
        # a failed run may lack a metric; its JSON line still comes, with 0
        result["metrics"] = {
            m["name"]: {"value": result["values"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in listed
        }
        print_table(name, result)
        write_record(name, args, result)
        results[name] = result
    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {
            f"{name}:{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def preflight(root: pathlib.Path) -> dict:
    """Refuse to run where the numbers would not mean what they say."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise Refused(f"no program source under {root / 'src' / 'repro'}")
    if os.environ.get("REPRO_BACKEND"):
        raise Refused(
            "REPRO_BACKEND is set; it overrides 'auto' for every kernel and "
            "would swap which cores are measured"
        )
    try:
        with open(root / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise Refused(f"cannot read BENCHMARK.json: {exc}") from None


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_")}
    # one string-hash seed, hence one layout of every dict and set keyed by
    # strings, in every repetition
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def child_cpus(name: str, mode: str) -> list[int]:
    """The CPUs a repetition is pinned to: one, or the pool's ``jobs``."""
    cpus = sorted(os.sched_getaffinity(0))
    if name == "sweep-pool" and mode != "serial":
        return cpus[: workloads.SHAPES[name]["full"]["jobs"]]
    return cpus[:1]


def run_child(spec: dict, deadline: float, cpus: list[int]) -> dict:
    """Run one repetition in a fresh interpreter pinned to ``cpus``, probing
    the host's speed there until it exits; a crash or a timeout is a failed
    repetition, never a failed benchmark."""
    out = HERE / "out"
    path = out / f"child-{os.getpid()}.json"
    spec = dict(spec, scratch=str(out), trace_path=str(out / spec.pop("trace_name", "unused.json")))
    path.unlink(missing_ok=True)
    with open(out / f"child-{os.getpid()}.log", "w+", encoding="utf-8") as log:
        try:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(path)],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=log,
                preexec_fn=functools.partial(os.sched_setaffinity, 0, cpus),
                start_new_session=True,
            )
        except OSError as exc:
            return {"crashed": repr(exc), "traced": spec["traced"]}
        try:
            probes = speed.sample_while(proc, cpus, deadline)
        except subprocess.TimeoutExpired:
            return {"crashed": "timed out", "traced": spec["traced"]}
        finally:
            if proc.poll() is None:
                # the child's session holds its pool workers too
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        try:
            with open(path, encoding="utf-8") as f:
                result = json.load(f)
            path.unlink()
        except (OSError, ValueError):
            log.seek(0)
            tail = "\n".join(log.read().splitlines()[-20:])
            return {"crashed": f"exit {proc.returncode}: {tail}", "traced": spec["traced"]}
    if proc.returncode and not result.get("failed"):
        result["crashed"] = f"exit {proc.returncode}"
    result["scaled"] = scale(result, probes, cpus[0])
    return result


def scale(rep: dict, probes: list[list[float]], first_cpu: int) -> dict:
    """One repetition's timings in reference seconds (see ``speed.py``).

    Set-up and the memo hits of the checks ran on ``first_cpu`` alone
    (``child.py``), so only the probes there scale them.
    """
    own = [p for p in probes if p[2] == first_cpu]
    windows = rep.get("windows", {})
    out: dict = {"probes": len(probes)}
    if "setup" in windows:
        out["setup_s"] = speed.scaled(rep["setup_s"], windows["setup"], own)
    if "unit" in windows:
        out["speed"] = speed.factor(windows["unit"], probes)
        out["wall_s"] = speed.scaled(rep["unit_s"], windows["unit"], probes)
        samples = rep.get("samples", {})
        out["restore_s"] = [
            speed.scaled(seconds, (start, end), probes)
            for start, end, seconds in samples.get("restore", [])
        ]
        out["hit_ms"] = [scaled_hits(block, own) for block in samples.get("hits", []) if block]
    return out


def scaled_hits(block: list[list[float]], probes: list[list[float]]) -> list[float]:
    """A block's hit latencies in reference ms, less those a probe
    preempted."""
    window = (block[0][0], block[-1][0] + block[-1][1] / 1e3)
    f = speed.factor(window, probes)
    return [ms * f for start, ms in block if not speed.overlaps(start, ms / 1e3, probes)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, shape: str) -> dict:
    (HERE / "out").mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    started = time.monotonic()
    deadline = started + BUDGET_S + 25.0
    base = {"workload": name, "seed": seed, "shape": shape}
    cpus = child_cpus(name, "rep")
    reps: list[dict] = []
    timed = longest = 0.0
    while True:
        index = len(reps)
        traced = trace and index % 2 == 1
        begin = time.monotonic()
        rep = run_child(
            dict(
                base,
                mode="rep",
                traced=traced,
                full_checks=index == 0,
                trace_name=f"{name}-seed{seed}-rep{index}.trace.json",
            ),
            deadline,
            cpus,
        )
        reps.append(rep)
        if "crashed" in rep or rep.get("failed"):
            break
        timed += rep["unit_s"]
        longest = max(longest, time.monotonic() - begin)
        done = len(reps) >= MIN_REPS and timed >= seconds
        if done or time.monotonic() - started + longest > BUDGET_S:
            break
    serial = None
    if trace and name == "sweep-pool" and not any("crashed" in r for r in reps):
        serial = run_child(
            dict(base, mode="serial", traced=False, full_checks=False),
            deadline,
            child_cpus(name, "serial"),
        )
    setups = [r["scaled"]["setup_s"] for r in reps if "setup_s" in r.get("scaled", {}) and not r["traced"]]
    while (
        not trace
        and len(setups) < SETUP_SAMPLES
        and time.monotonic() - started + 5.0 < BUDGET_S
    ):
        probe = run_child(dict(base, mode="setup", traced=False, full_checks=False), deadline, cpus)
        if "setup_s" not in probe.get("scaled", {}):
            break
        setups.append(probe["scaled"]["setup_s"])
    result = aggregate(name, shape, reps, serial, setups)
    result["provenance"] = provenance(seed, result["samples"]["speed"])
    result["elapsed_s"] = time.monotonic() - started
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def aggregate(name: str, shape: str, reps: list[dict], serial: dict | None, setups: list[float]) -> dict:
    everything = reps + ([serial] if serial is not None else [])
    attempted = sum(r.get("attempted", 0) for r in everything)
    failed = sum(r.get("failed", 0) for r in everything)
    failures = [msg for r in everything for msg in r.get("failures", [])]
    for r in everything:
        if "crashed" in r and not r.get("failed"):
            lost = workloads.ops_per_rep(name, shape)
            attempted += lost
            failed += lost
            failures.append(f"repetition crashed: {r['crashed']}")
    digests = {r.get("digest") for r in everything if "unit_s" in r}
    if len(digests) > 1:
        failed += attempted - failed
        failures.append(f"deterministic outputs differ between repetitions: {sorted(map(str, digests))}")
    attempted = max(attempted, 1)
    values: dict[str, float] = {}
    if failed == 0:
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        values.update(end_to_end(plain or traced, setups, attempted, failed))
        if traced:
            values.update(per_layer(name, shape, plain, traced, serial, reps))
    correct = failed == 0 and all(math.isfinite(v) for v in values.values())
    plain = [r["scaled"] for r in reps if "wall_s" in r.get("scaled", {}) and not r["traced"]]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "values": values,
        "samples": {
            "wall_s": [s["wall_s"] for s in plain],
            "setup_s": setups,
            "restore_s": [x for s in plain for x in s["restore_s"]],
            "hit_ms": sum(len(block) for s in plain for block in s["hit_ms"]),
            "speed": [s["speed"] for s in plain],
            "raw_wall_s": [r["unit_s"] for r in reps if "unit_s" in r and not r["traced"]],
        },
        "reps": [
            {k: v for k, v in r.items() if k != "samples"}
            | {"scaled": {k: v for k, v in r.get("scaled", {}).items() if k != "hit_ms"}}
            for r in everything
        ],
    }


def end_to_end(reps: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    first = reps[0]["values"]
    restore = [x for r in reps for x in r["scaled"]["restore_s"]]
    # every block of hits weighs the same; a block's median ignores its outliers
    blocks = [b for r in reps for b in r["scaled"]["hit_ms"] if b]
    return {
        "wall_s": statistics.median(r["scaled"]["wall_s"] for r in reps),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "success_rate": 1.0 - failed / attempted,
        "quality.avg_l1": first.get("quality.avg_l1", float("nan")),
        "quality.rewire_l1": first.get("quality.rewire_l1", float("nan")),
        "restore_p50_s": statistics.median(restore) if restore else float("nan"),
        "hit_p50_ms": statistics.fmean(statistics.median(b) for b in blocks) if blocks else math.nan,
    }


def per_layer(
    name: str, shape: str, plain: list[dict], traced: list[dict], serial: dict | None, reps: list[dict]
) -> dict:
    keys = traced[0]["layers"].keys()
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
    traced_wall = statistics.median(r["scaled"]["wall_s"] for r in traced)
    plain_wall = statistics.median(r["scaled"]["wall_s"] for r in plain) if plain else traced_wall
    out["trace.overhead"] = traced_wall / plain_wall
    out["api.serial_wall_s"] = out["api.speedup"] = out["api.efficiency"] = 0.0
    if serial is not None and "wall_s" in serial.get("scaled", {}):
        out["api.serial_wall_s"] = serial["scaled"]["wall_s"]
        out["api.speedup"] = out["api.serial_wall_s"] / plain_wall
        out["api.efficiency"] = out["api.speedup"] / workloads.SHAPES[name][shape]["jobs"]
    out["service.hit_p99_ms"] = out["service.cache_hits"] = out["service.cache_misses"] = 0.0
    if name == "serve-restore":
        hits = sorted(x for r in reps for block in r["scaled"]["hit_ms"] for x in block)
        if hits:
            out["service.hit_p99_ms"] = hits[min(len(hits) - 1, int(0.99 * len(hits)))]
        out["service.cache_hits"] = statistics.median(r["values"]["cache_hits"] for r in traced)
        out["service.cache_misses"] = statistics.median(r["values"]["cache_misses"] for r in traced)
    return out


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, speeds: list[float]) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and pathlib.Path(top).resolve() == ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no")) if sha else None
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())

    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": tree.hexdigest(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        # reference seconds per second over each untraced repetition's unit
        "host_speed": speeds,
    }


def print_table(name: str, result: dict) -> None:
    counts = {
        "wall_s": len(result["samples"]["wall_s"]),
        "setup_s": len(result["samples"]["setup_s"]),
        "restore_p50_s": len(result["samples"]["restore_s"]),
        "hit_p50_ms": result["samples"]["hit_ms"],
    }
    for metric, entry in result["metrics"].items():
        n = f"  (n={counts[metric]})" if metric in counts else ""
        print(f"{name:<14} {metric:<38} {entry['value']:>14.6g} {entry['unit']}{n}")
    if result["samples"]["speed"]:
        print(
            f"{name:<14} host speed {statistics.median(result['samples']['speed']):.3f} "
            f"reference s per s; unscaled wall_s "
            f"{statistics.median(result['samples']['raw_wall_s']):.3f} s"
        )
    for message in result["failures"]:
        print(f"{name:<14} FAILED: {message.strip()}", file=sys.stderr)
    print(
        f"{name:<14} attempted={result['attempted']} failed={result['failed']} "
        f"cpus={result['provenance']['cpus']} sha={result['provenance']['git_sha']} "
        f"elapsed={result['elapsed_s']:.1f}s"
    )


def write_record(name: str, args, result: dict) -> None:
    path = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True, default=str)


if __name__ == "__main__":
    sys.exit(main())
