"""Worker-side request handlers: pure, picklable, deterministic.

Each handler takes one *normalized* params dict
(:func:`repro.service.protocol.normalize_request`) and returns
``(payload, truth_delta)``: a JSON-able response payload and the delta
this item added to the worker process's truth-memo counters (merged back
parent-side so the server's ``stats`` op reports real cache activity
under a process pool — the same
:func:`~repro.experiments.runner.truth_stats_delta` the executor layer
uses).

Everything here is module-level so the server can ship work into a
``concurrent.futures.ProcessPoolExecutor`` unchanged; the handlers reuse
the engine exactly as the harness and the CLI do — ``run_experiment``
for ``evaluate``, :func:`~repro.restore.restorer.restore_dataset` for
``restore`` — so a service response is the same object a direct library
call produces (the bench asserts bit-identity on the deterministic
fields).
"""

from __future__ import annotations

from repro.experiments.methods import METHOD_NAMES
from repro.experiments.runner import (
    ExperimentConfig,
    run_experiment,
    shared_dataset_graph,
    truth_stats_delta,
)
from repro.metrics.suite import EvaluationConfig
from repro.sampling.faults import policy_from_knobs
from repro.service.protocol import aggregates_to_payload


def run_op(op: str, params: dict) -> tuple[dict, dict]:
    """Dispatch one normalized request to its handler (the single
    function the server submits to its executor)."""
    return truth_stats_delta(_HANDLERS[op], params)


def evaluate_config(params: dict) -> ExperimentConfig:
    """The :class:`ExperimentConfig` an ``evaluate`` request describes.

    Exposed (and used by the bench) so the direct-comparison path builds
    the exact same cell the service computes.
    """
    methods = params["methods"]
    evaluation = EvaluationConfig(
        exact_threshold=params["exact_threshold"],
        path_sources=params["path_sources"],
        betweenness_pivots=params["betweenness_pivots"],
        seed=params["eval_seed"],
        backend=params["backend"],
        exact_paths=params["exact_paths"],
    )
    return ExperimentConfig(
        dataset=params["dataset"],
        fraction=params["fraction"],
        runs=params["runs"],
        methods=tuple(methods) if methods is not None else METHOD_NAMES,
        rc=params["rc"],
        scale=params["scale"],
        seed=params["seed"],
        evaluation=evaluation,
        max_rewiring_attempts=params["max_rewiring_attempts"],
        backend=params["backend"],
        fault_policy=_fault_policy(params),
    )


def _fault_policy(params: dict):
    """The crawl regime a request's fault knobs describe (None = ideal).

    The knobs are normalized (defaulted + coerced) before they get here,
    so two requests meaning the same regime produce equal policies —
    and, upstream, the same content address.
    """
    return policy_from_knobs(
        fault_rate=params["fault_rate"],
        rate_limit=params["rate_limit"],
        truncate_at=params["truncate_at"],
        churn=params["churn"],
    )


def _handle_evaluate(params: dict) -> dict:
    """One full experiment cell: runs × methods × 12-property distances.

    ``aggregates`` carries only the deterministic fields (bit-identical
    to a direct ``run_experiment`` on the same params); the wall-clock
    means live separately under ``timings``.
    """
    config = evaluate_config(params)
    aggregates = run_experiment(config)
    return {
        "op": "evaluate",
        "dataset": config.dataset,
        "fraction": config.fraction,
        "runs": config.runs,
        "seed": config.seed,
        "aggregates": aggregates_to_payload(aggregates, include_timings=False),
        "timings": {
            method: {
                "total_seconds": agg.total_seconds,
                "rewiring_seconds": agg.rewiring_seconds,
            }
            for method, agg in aggregates.items()
        },
    }


def _handle_restore(params: dict) -> dict:
    """One crawl-and-restore: the proposed method end to end, the same
    :func:`~repro.restore.restorer.restore_dataset` call ``repro restore``
    makes.

    The crawl runs on the published shared-memory snapshot when the
    server shipped one for this (dataset, scale); the crawl reads the
    graph only through the ``GraphAccess`` neighbor-query surface, which
    the snapshot serves bit-identically.
    """
    from repro.graph.datasets import load_dataset
    from repro.restore.restorer import restore_dataset

    graph = shared_dataset_graph(params["dataset"], params["scale"])
    if graph is None:
        graph = load_dataset(params["dataset"], scale=params["scale"])
    result = restore_dataset(
        graph,
        params["fraction"],
        params["rc"],
        params["seed"],
        params["backend"],
        _fault_policy(params),
    )
    return {
        "op": "restore",
        "dataset": params["dataset"],
        "fraction": params["fraction"],
        "seed": params["seed"],
        "summary": result.summary(),
    }


def _handle_profile(params: dict) -> dict:
    """Structural profile of a dataset (12 properties + core/periphery)."""
    from repro.graph.datasets import load_dataset
    from repro.metrics.profile import graph_profile
    from repro.metrics.suite import EvaluationConfig

    graph = load_dataset(params["dataset"], scale=params["scale"])
    profile = graph_profile(graph, EvaluationConfig(backend=params["backend"]))
    props = profile.properties
    return {
        "op": "profile",
        "dataset": params["dataset"],
        "scale": params["scale"],
        "nodes": profile.num_nodes,
        "edges": profile.num_edges,
        "average_degree": props.average_degree,
        "clustering": props.clustering,
        "average_path_length": props.average_path_length,
        "diameter": props.diameter,
        "largest_eigenvalue": props.largest_eigenvalue,
        "degeneracy": profile.degeneracy,
        "periphery_fraction": profile.periphery_fraction,
    }


# ops the compute path serves; ping/stats are answered on the event loop
_HANDLERS = {
    "evaluate": _handle_evaluate,
    "restore": _handle_restore,
    "profile": _handle_profile,
}

COMPUTE_OPS: tuple[str, ...] = tuple(_HANDLERS)
