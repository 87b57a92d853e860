"""Command-line front end: ``python -m repro.cli <command>``.

Commands map one-to-one onto the paper's tables and figures::

    repro fig3    [--runs N] [--rc RC] [--scale S] [--datasets a,b,c]
    repro table2  [--runs N] [--rc RC] [--scale S]
    repro table3  [--runs N] [--rc RC] [--scale S]
    repro table4  [--runs N] [--rc RC] [--scale S]
    repro table5  [--runs N] [--rc RC] [--scale S]
    repro sweep   [--datasets a,b] [--fractions ...] [--csv PATH]
    repro fig4    [--out DIR] [--rc RC] [--scale S]
    repro ablate  [--which rewiring|rc|subgraph] [--scale S]
    repro datasets
    repro profile <dataset> [--scale S]
    repro restore <dataset> [--fraction F] [--rc RC] [--out PREFIX]
    repro snapshot <dataset> --out PATH [--scale S] [--check]
    repro serve   [--host H] [--port P] [--jobs N] [--share d[:scale]]
    repro request <op> [--host H] [--port P] [--params JSON] [--timeout S]
    repro worker  --connect HOST:PORT [--connect-timeout S]

``serve`` runs the long-lived restoration service (asyncio front end
over a worker pool, content-addressed response cache, request
coalescing — see ``repro.service``); ``request`` is its line client:
it prints the canonical-JSON result payload on stdout (so two identical
requests print byte-identical text) and progress/errors on stderr.

Execution is described once per invocation by a
:class:`repro.api.RunContext` built from the shared flags ``--backend``,
``--seed``, ``--jobs``, and ``--exact-paths`` — every experiment command
threads that single context instead of re-plumbing per-subcommand
``backend=`` / ``seed=`` keywords.  ``--jobs 2`` spreads the runs of
every cell (a table's datasets, a sweep's grid, or table5's single cell)
over a process pool with bit-identical results to the serial run.
``--workers h1:p,h2:p`` shards the same work across ``repro worker``
agents — start one per listed address with ``repro worker --connect
HOST:PORT`` (any host that can reach the coordinator and runs the same
repro source tree) — still bit-identical.

Paper-scale settings (runs=10, rc=500, scale=1.0) reproduce the published
protocol; the defaults here are faster bench-scale settings (the
benchmarks' own are listed in docs/BENCHMARKS.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import RunContext
from repro.engine.dispatch import BACKENDS
from repro.experiments import figures, tables
from repro.experiments.ablations import (
    RC_SWEEP,
    format_ablation,
    rc_sweep_ablation,
    rewiring_exclusion_ablation,
    subgraph_use_ablation,
)
from repro.graph.datasets import (
    FIGURE3_DATASETS,
    TABLE2_DATASETS,
    TABLE34_DATASETS,
    dataset_names,
    dataset_spec,
    load_dataset,
)


#: the rewiring coefficient a command uses when ``--rc`` is not given
_DEFAULT_RC = 50.0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = _HANDLERS[args.command]
    result = handler(args)
    if isinstance(result, int):  # lint/worker return a process exit code directly
        return result
    print(result)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Social Graph "
        "Restoration via Random Walk Sampling' (ICDE 2022).",
    )
    sub = parser.add_subparsers(dest="command")

    def common(
        p: argparse.ArgumentParser,
        runs: bool = True,
        rc: bool = True,
        execution: bool = True,
        harness: bool = True,
    ) -> None:
        """Shared flags, each offered only on commands that read it, so
        an ignored flag is an argparse error rather than a silent no-op:
        ``execution`` adds the evaluation backend and ``--exact-paths``
        (fig4 and convergence evaluate no properties); ``harness`` adds
        the flags only cells run through the experiment harness honor,
        ``--jobs``, ``--workers`` and the crawl fault regime (ablate runs
        its variants serially on one ideal walk)."""
        if runs:
            p.add_argument("--runs", type=int, default=3, help="runs per cell (paper: 10)")
        if rc:
            p.add_argument(
                "--rc", type=float, default=_DEFAULT_RC, help="rewiring coefficient (paper: 500)"
            )
        p.add_argument("--scale", type=float, default=1.0, help="dataset stand-in scale")
        p.add_argument("--seed", type=int, default=1, help="base seed (cell/run seeds are spawned from it)")
        if execution:
            p.add_argument(
                "--backend",
                choices=BACKENDS,
                default="auto",
                help="compute backend for property evaluation and rewiring "
                "(auto evaluates on the CSR engine and picks the rewiring "
                "core by attempt budget)",
            )
            p.add_argument(
                "--exact-paths",
                action="store_true",
                help="exact all-pairs shortest paths (streaming histogram) "
                "instead of the sampled protocol",
            )
        if execution and harness:
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="worker processes for cell execution (results are "
                "bit-identical to --jobs 1 on a fixed seed)",
            )
            p.add_argument(
                "--workers",
                default=None,
                metavar="HOST:PORT,...",
                help="shard execution across remote 'repro worker' agents "
                "instead of a local pool: one address per expected agent "
                "(repeat an address for several agents on it); results "
                "are bit-identical to --jobs 1 on a fixed seed",
            )
            _fault_flags(p)

    p_fig3 = sub.add_parser("fig3", help="Figure 3: average L1 vs %% queried")
    common(p_fig3)
    p_fig3.add_argument(
        "--datasets", default=",".join(FIGURE3_DATASETS), help="comma-separated names"
    )
    p_fig3.add_argument(
        "--fractions",
        default="0.02,0.04,0.06,0.08,0.10",
        help="comma-separated fractions (paper: 0.01..0.10)",
    )

    for name, help_text in (
        ("table2", "Table II: per-property L1 at 10%% queried"),
        ("table3", "Table III: avg +/- sd of the 12 L1 distances"),
        ("table4", "Table IV: generation times"),
        ("table5", "Table V: YouTube at 1%% queried"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)

    p_sweep = sub.add_parser(
        "sweep", help="cartesian sweep: datasets x fractions x RCs"
    )
    common(p_sweep)
    p_sweep.add_argument(
        "--datasets", default="anybeat", help="comma-separated names"
    )
    p_sweep.add_argument(
        "--fractions", default="0.10", help="comma-separated fractions"
    )
    p_sweep.add_argument(
        "--rcs", default=None,
        help="comma-separated rewiring coefficients (default: --rc)",
    )
    p_sweep.add_argument(
        "--csv", default=None, help="checkpoint CSV path (rewritten per cell)"
    )
    p_sweep.add_argument(
        "--no-timings",
        action="store_true",
        help="drop the wall-clock columns from the stdout CSV, leaving "
        "only the deterministic ones — two runs of the same grid and "
        "seed then print byte-identical text whatever executed them",
    )

    p_fig4 = sub.add_parser("fig4", help="Figure 4: SVG graph portraits")
    common(p_fig4, runs=False, execution=False)  # one portrait per method
    p_fig4.add_argument("--out", default="figures", help="output directory")
    p_fig4.add_argument("--dataset", default="anybeat")

    p_abl = sub.add_parser("ablate", help="design-choice ablations")
    common(p_abl, runs=False, harness=False)  # variants share one walk
    p_abl.set_defaults(rc=None)  # None = not given: --which rc sweeps its own
    p_abl.add_argument(
        "--which",
        choices=("rewiring", "rc", "subgraph", "all"),
        default="all",
    )
    p_abl.add_argument("--dataset", default="anybeat")

    sub.add_parser("datasets", help="list the dataset stand-ins")

    p_conv = sub.add_parser(
        "convergence", help="estimator error vs crawl budget (extension study)"
    )
    common(p_conv, rc=False, execution=False)  # estimators only: no restore or suite
    p_conv.add_argument("--dataset", default="anybeat")
    p_conv.add_argument(
        "--fractions", default="0.02,0.05,0.10,0.20,0.40", help="comma-separated"
    )

    p_prof = sub.add_parser("profile", help="structural profile of a dataset")
    p_prof.add_argument("dataset")
    p_prof.add_argument("--scale", type=float, default=1.0)

    p_rest = sub.add_parser(
        "restore", help="crawl a dataset, restore it, save graph + summary"
    )
    p_rest.add_argument("dataset")
    p_rest.add_argument("--fraction", type=float, default=0.10)
    p_rest.add_argument("--rc", type=float, default=50.0)
    p_rest.add_argument("--scale", type=float, default=1.0)
    p_rest.add_argument("--seed", type=int, default=1)
    p_rest.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help="rewiring/evaluation compute backend (auto evaluates on the "
        "CSR engine and picks the rewiring core by attempt budget)",
    )
    p_rest.add_argument("--out", default=None, help="output path prefix")
    _fault_flags(p_rest)

    p_snap = sub.add_parser(
        "snapshot",
        help="freeze a dataset to an on-disk CSR snapshot (see repro.engine.store)",
    )
    p_snap.add_argument("dataset")
    p_snap.add_argument("--scale", type=float, default=1.0)
    p_snap.add_argument("--out", required=True, help="snapshot file path")
    p_snap.add_argument(
        "--check",
        action="store_true",
        help="reload the written snapshot (ram + mmap) and verify it "
        "round-trips the frozen graph exactly",
    )

    p_serve = sub.add_parser(
        "serve", help="run the restoration service (see repro.service)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7331, help="0 picks an ephemeral port")
    p_serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker parallelism: >=2 is a process pool, 1 an in-process thread",
    )
    p_serve.add_argument(
        "--cache-entries", type=int, default=128,
        help="response LRU bound (0 disables response caching)",
    )
    p_serve.add_argument(
        "--truth-cache-entries", type=int, default=8,
        help="per-worker truth-PropertySet LRU bound (process-pool mode)",
    )
    p_serve.add_argument(
        "--progress-interval", type=float, default=1.0,
        help="seconds between progress frames on long-running requests",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request time budget in seconds (none: wait forever)",
    )
    p_serve.add_argument(
        "--share", action="append", default=[], metavar="DATASET[:SCALE]",
        help="publish a dataset's frozen snapshot into shared memory at "
        "startup so pool workers attach instead of rebuilding (repeatable; "
        "process-pool mode only)",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism & contract linter (see repro.lint)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)

    p_work = sub.add_parser(
        "worker",
        help="run one distributed-execution agent (see repro.api.distributed)",
    )
    p_work.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address — the matching entry of the sweep's "
        "--workers list",
    )
    p_work.add_argument(
        "--connect-timeout", type=float, default=60.0,
        help="seconds to keep retrying the TCP connect (the coordinator "
        "may start after the worker)",
    )
    p_work.add_argument(
        "--chaos-mark", default=None, metavar="PATH",
        help="test hook: touch PATH when the first task arrives",
    )
    p_work.add_argument(
        "--chaos-hang-on-task", type=int, default=0, metavar="N",
        help="test hook: hang on the Nth task received (0 disables)",
    )

    p_req = sub.add_parser(
        "request", help="send one request to a running restoration service"
    )
    p_req.add_argument(
        "op", choices=("ping", "stats", "profile", "evaluate", "restore")
    )
    p_req.add_argument("--host", default="127.0.0.1")
    p_req.add_argument("--port", type=int, default=7331)
    p_req.add_argument(
        "--params", default="{}",
        help='request parameters as a JSON object, e.g. \'{"dataset": "anybeat"}\'',
    )
    p_req.add_argument(
        "--timeout", type=float, default=None,
        help="per-request time budget in seconds (enforced server-side)",
    )
    return parser


def _fault_flags(p: argparse.ArgumentParser) -> None:
    """The imperfect-crawler regime knobs (repro.sampling.faults); all
    zero — the defaults — mean ideal crawling, bit-identical to a build
    without these flags."""
    p.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="transient per-attempt query failure probability in [0, 1) "
        "(failed attempts are retried, each charged against the crawl's "
        "API-call budget)",
    )
    p.add_argument(
        "--rate-limit", type=int, default=0,
        help="rate-limit window: every Nth API call costs one extra "
        "(wasted) call (0 disables)",
    )
    p.add_argument(
        "--truncate-at", type=int, default=0,
        help="neighbor-list page cap: queries return only the first N "
        "incident edges (0 disables)",
    )
    p.add_argument(
        "--churn", type=float, default=0.0,
        help="probability in [0, 1] that a node has churned away when "
        "first queried (crawlers skip it and re-seed dead crawls)",
    )


def _fault_policy(args):
    from repro.sampling.faults import policy_from_knobs

    return policy_from_knobs(
        fault_rate=getattr(args, "fault_rate", 0.0),
        rate_limit=getattr(args, "rate_limit", 0),
        truncate_at=getattr(args, "truncate_at", 0),
        churn=getattr(args, "churn", 0.0),
    )


def _context(args) -> RunContext:
    """The single execution context every experiment command runs under."""
    workers_text = getattr(args, "workers", None)
    workers = (
        tuple(address.strip() for address in workers_text.split(","))
        if workers_text
        else None
    )
    return RunContext(
        backend=getattr(args, "backend", "auto"),
        seed=getattr(args, "seed", 1),
        exact_paths=getattr(args, "exact_paths", False),
        jobs=getattr(args, "jobs", 1),
        fault_policy=_fault_policy(args),
        workers=workers,
    )


def _settings(args) -> tables.TableSettings:
    return tables.TableSettings(runs=args.runs, rc=args.rc, scale=args.scale)


def _cmd_fig3(args) -> str:
    fractions = tuple(float(f) for f in args.fractions.split(","))
    datasets = tuple(args.datasets.split(","))
    settings = figures.Figure3Settings(
        fractions=fractions, runs=args.runs, rc=args.rc, scale=args.scale
    )
    series = figures.figure3_series(
        settings, datasets=datasets, context=_context(args)
    )
    return figures.format_figure3(series, fractions)


def _cmd_table2(args) -> str:
    return tables.format_table2(
        tables.table2_rows(_settings(args), TABLE2_DATASETS, context=_context(args))
    )


def _cmd_table3(args) -> str:
    return tables.format_table3(
        tables.table3_rows(_settings(args), TABLE34_DATASETS, context=_context(args))
    )


def _cmd_table4(args) -> str:
    return tables.format_table4(
        tables.table4_rows(_settings(args), TABLE34_DATASETS, context=_context(args))
    )


def _cmd_table5(args) -> str:
    return tables.format_table5(
        tables.table5_rows(_settings(args), context=_context(args))
    )


def _cmd_sweep(args) -> str:
    from repro.experiments.sweeps import SweepGrid, run_sweep, sweep_to_csv

    rcs = args.rcs if args.rcs is not None else f"{args.rc:g}"
    grid = SweepGrid(
        datasets=tuple(args.datasets.split(",")),
        fractions=tuple(float(f) for f in args.fractions.split(",")),
        rcs=tuple(float(rc) for rc in rcs.split(",")),
        runs=args.runs,
        scale=args.scale,
    )
    results = run_sweep(grid, csv_path=args.csv, context=_context(args))
    # stdout stays pure CSV (pipeable) whether or not --csv also wrote a file
    return sweep_to_csv(results, include_timings=not args.no_timings).rstrip("\n")


def _cmd_fig4(args) -> str:
    settings = figures.Figure4Settings(
        dataset=args.dataset, rc=args.rc, scale=args.scale, seed=args.seed
    )
    paths = figures.figure4_render(args.out, settings)
    return "wrote:\n" + "\n".join(paths)


def _cmd_ablate(args) -> str | int:
    from repro.metrics.suite import EvaluationConfig

    if args.which == "rc" and args.rc is not None:
        swept = ", ".join(f"{rc:g}" for rc in RC_SWEEP)
        print(
            f"repro ablate: error: --which rc sweeps RC over {swept}; "
            "--rc applies only to the rewiring and subgraph ablations",
            file=sys.stderr,
        )
        return 2
    rc = _DEFAULT_RC if args.rc is None else args.rc
    context = _context(args)
    evaluation = EvaluationConfig(
        backend=context.backend, exact_paths=context.exact_paths
    )
    blocks: list[str] = []
    if args.which in ("rewiring", "all"):
        rows = rewiring_exclusion_ablation(
            dataset=args.dataset,
            rc=rc,
            scale=args.scale,
            seed=context.seed,
            evaluation=evaluation,
            backend=context.backend,
        )
        blocks.append(format_ablation(rows, "rewiring candidate exclusion"))
    if args.which in ("rc", "all"):
        rows = rc_sweep_ablation(
            dataset=args.dataset,
            scale=args.scale,
            seed=context.seed,
            evaluation=evaluation,
            backend=context.backend,
        )
        blocks.append(format_ablation(rows, "rewiring budget (RC) sweep"))
    if args.which in ("subgraph", "all"):
        rows = subgraph_use_ablation(
            dataset=args.dataset,
            rc=rc,
            scale=args.scale,
            seed=context.seed,
            evaluation=evaluation,
            backend=context.backend,
        )
        blocks.append(format_ablation(rows, "subgraph structure use"))
    return "\n\n".join(blocks)


def _cmd_datasets(args) -> str:
    lines = ["name\tpaper n\tpaper m\tstand-in n\tstand-in m\tstand-in kbar"]
    for name in dataset_names():
        spec = dataset_spec(name)
        g = load_dataset(name)
        lines.append(
            f"{name}\t{spec.paper_nodes}\t{spec.paper_edges}"
            f"\t{g.num_nodes}\t{g.num_edges}\t{g.average_degree():.2f}"
        )
    return "\n".join(lines)


def _cmd_convergence(args) -> str:
    from repro.experiments.convergence import (
        estimator_convergence,
        format_convergence,
    )

    fractions = tuple(float(f) for f in args.fractions.split(","))
    points = estimator_convergence(
        dataset=args.dataset,
        fractions=fractions,
        runs=args.runs,
        scale=args.scale,
        seed=args.seed,
    )
    return format_convergence(points, title=f"estimator convergence ({args.dataset})")


def _cmd_profile(args) -> str:
    from repro.metrics.profile import format_profile, graph_profile

    graph = load_dataset(args.dataset, scale=args.scale)
    return format_profile(graph_profile(graph), title=args.dataset)


def _cmd_restore(args) -> str:
    import json

    from repro.graph.io import write_edge_list
    from repro.metrics.profile import (
        format_profile_comparison,
        graph_profile,
    )
    from repro.metrics.suite import EvaluationConfig
    from repro.restore.restorer import restore_dataset

    graph = load_dataset(args.dataset, scale=args.scale)
    result = restore_dataset(
        graph, args.fraction, args.rc, args.seed, args.backend, _fault_policy(args)
    )

    evaluation = EvaluationConfig(backend=args.backend)
    blocks = [
        format_profile_comparison(
            graph_profile(graph, evaluation),
            graph_profile(result.graph, evaluation),
        )
    ]
    if args.out:
        edge_path = f"{args.out}.edges"
        summary_path = f"{args.out}.json"
        write_edge_list(result.graph, edge_path)
        with open(summary_path, "w", encoding="utf-8") as f:
            json.dump(result.summary(), f, indent=2)
        blocks.append(f"\nwrote {edge_path} and {summary_path}")
    return "\n".join(blocks)


def _cmd_snapshot(args) -> str:
    from repro.engine.dispatch import ensure_csr
    from repro.engine.store import load_snapshot, save_snapshot

    csr = ensure_csr(load_dataset(args.dataset, scale=args.scale))
    path = save_snapshot(csr, args.out)
    lines = [
        f"wrote {path} ({path.stat().st_size} bytes, "
        f"n={csr.num_nodes}, m={csr.num_edges})"
    ]
    if args.check:
        import numpy as np

        for mode in ("ram", "mmap"):
            loaded = load_snapshot(path, mode=mode)
            ok = (
                list(loaded.node_list) == list(csr.node_list)
                and np.array_equal(loaded.indptr, csr.indptr)
                and np.array_equal(loaded.indices, csr.indices)
                and np.array_equal(loaded.degree_array(), csr.degree_array())
            )
            if not ok:
                raise SystemExit(f"snapshot check failed in {mode} mode")
            lines.append(f"check {mode}: ok")
    return "\n".join(lines)


def _parse_share(entries: list[str]) -> tuple:
    targets = []
    for entry in entries:
        name, _, scale = entry.partition(":")
        try:
            targets.append((name, float(scale) if scale else 1.0))
        except ValueError:
            raise SystemExit(
                f"bad --share entry {entry!r}: scale must be a number"
            ) from None
    return tuple(targets)


def _cmd_serve(args) -> str:
    import asyncio

    from repro.service import ReproService, serve

    service = ReproService(
        jobs=args.jobs,
        cache_entries=args.cache_entries,
        truth_cache_entries=args.truth_cache_entries,
        progress_interval=args.progress_interval,
        default_timeout=args.timeout,
        shared_datasets=_parse_share(args.share),
    )
    asyncio.run(serve(service, host=args.host, port=args.port))
    return ""


def _cmd_worker(args) -> int:
    from repro.api.distributed import run_worker
    from repro.errors import DistributedError

    try:
        return run_worker(
            args.connect,
            connect_timeout=args.connect_timeout,
            chaos_mark=args.chaos_mark,
            chaos_hang_on_task=args.chaos_hang_on_task,
        )
    except DistributedError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 1


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_lint_command

    return run_lint_command(args)


def _cmd_request(args) -> str:
    import json

    from repro.errors import ReproError
    from repro.service import ServiceClient, canonical_json

    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise SystemExit("--params must be a JSON object")

    def on_progress(frame):
        print(
            f"progress: {frame.get('op')} elapsed {frame.get('elapsed')}s",
            file=sys.stderr,
            flush=True,
        )

    try:
        with ServiceClient(args.host, args.port) as client:
            payload = client.request(
                args.op, params, timeout=args.timeout, on_progress=on_progress
            )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc
    except OSError as exc:
        raise SystemExit(f"connection failed: {exc}") from exc
    # canonical JSON on stdout: identical requests print identical bytes
    return canonical_json(payload)


_HANDLERS = {
    "fig3": _cmd_fig3,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "sweep": _cmd_sweep,
    "fig4": _cmd_fig4,
    "ablate": _cmd_ablate,
    "datasets": _cmd_datasets,
    "convergence": _cmd_convergence,
    "profile": _cmd_profile,
    "restore": _cmd_restore,
    "snapshot": _cmd_snapshot,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "request": _cmd_request,
}


if __name__ == "__main__":
    sys.exit(main())
