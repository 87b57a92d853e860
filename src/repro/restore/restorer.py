"""End-to-end restoration pipeline (the paper's proposed method).

``restore_graph`` takes a hidden graph behind a :class:`GraphAccess`, runs
the random walk, and returns the restored graph together with every
intermediate artifact (subgraph, estimates, targets, rewiring report) and a
stopwatch of per-phase generation times — Table IV/V report both the total
and the rewiring share, so the pipeline tracks them natively.

``restore_from_walk`` skips the crawl for callers that already hold a
sampling list (the experiment harness reuses one walk across the proposed
method, the Gjoka baseline, and RW subgraph sampling, exactly as the paper
prescribes for a fair comparison).  ``restore_dataset`` is the crawl of a
fraction of a dataset's nodes, ideal or faulty, that ``repro restore`` and
the service's ``restore`` op both run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dk.cleanup import CleanupReport, simplify_preserving_jdm
from repro.dk.construction import build_graph_from_targets
from repro.dk.rewiring import (
    DEFAULT_REWIRING_COEFFICIENT,
    RewiringEngine,
    RewiringReport,
)
from repro.estimators.local import LocalEstimates, estimate_local_properties
from repro.graph.multigraph import MultiGraph, Node
from repro.restore.target_degree_vector import (
    DegreeVectorTargets,
    build_target_degree_vector,
)
from repro.restore.target_jdm import build_target_jdm
from repro.sampling.access import GraphAccess, crawl_budget
from repro.sampling.faults import FaultPolicy, FaultyAccess, spawn_fault_seed
from repro.sampling.subgraph import SampledSubgraph, build_subgraph
from repro.sampling.walkers import SamplingList, random_walk
from repro.utils.rng import ensure_rng
from repro.utils.timers import Stopwatch

DegreePair = tuple[int, int]


@dataclass
class RestorationResult:
    """Everything the pipeline produced, plus per-phase timings."""

    graph: MultiGraph
    subgraph: SampledSubgraph
    estimates: LocalEstimates
    degree_targets: DegreeVectorTargets
    jdm_targets: dict[DegreePair, int] = field(default_factory=dict)
    rewiring: RewiringReport | None = None
    cleanup: CleanupReport | None = None
    stopwatch: Stopwatch = field(default_factory=Stopwatch)

    @property
    def total_seconds(self) -> float:
        """Total generation time (excludes the crawl itself)."""
        return self.stopwatch.total()

    @property
    def rewiring_seconds(self) -> float:
        """Time spent in the rewiring phase."""
        return self.stopwatch.elapsed("rewiring")

    def summary(self) -> dict:
        """JSON-friendly digest of the run (sizes, estimates, timings).

        Useful for logging sweeps without serializing whole graphs; the
        graph itself round-trips via :func:`repro.graph.io.write_edge_list`.
        """
        out = {
            "restored_nodes": self.graph.num_nodes,
            "restored_edges": self.graph.num_edges,
            "subgraph_nodes": self.subgraph.num_nodes,
            "subgraph_edges": self.subgraph.num_edges,
            "queried_nodes": len(self.subgraph.queried),
            "visible_nodes": len(self.subgraph.visible),
            "walk_length": self.estimates.walk_length,
            "estimated_num_nodes": self.estimates.num_nodes,
            "estimated_average_degree": self.estimates.average_degree,
            "target_max_degree": self.degree_targets.k_max,
            "total_seconds": self.total_seconds,
            "rewiring_seconds": self.rewiring_seconds,
            "phase_seconds": self.stopwatch.splits(),
        }
        if self.rewiring is not None:
            out["rewiring_attempts"] = self.rewiring.attempts
            out["rewiring_accepted"] = self.rewiring.accepted
            out["rewiring_final_distance"] = self.rewiring.final_distance
        return out


def restore_from_walk(
    walk: SamplingList,
    rc: float = DEFAULT_REWIRING_COEFFICIENT,
    rng: random.Random | int | None = None,
    max_rewiring_attempts: int | None = None,
    protect_subgraph_edges: bool = True,
    simplify_output: bool = False,
    backend: str = "auto",
) -> RestorationResult:
    """Run the four-phase restoration from an existing sampling list.

    ``protect_subgraph_edges=False`` disables the proposed method's
    candidate-set exclusion (``E~_rew = E~`` instead of ``E~ \\ E'``) —
    the ablation knob for the design choice Section IV-E motivates.

    ``simplify_output=True`` appends a post-processing pass that removes
    residual parallel edges and loops with degree-preserving swaps (strict
    JDM-preserving swaps first, degree-only swaps for the leftovers),
    never touching the subgraph's edges.  Off by default: the paper's
    protocol evaluates the graph exactly as generated.

    ``backend`` selects the rewiring compute backend (``"auto"`` routes
    runs with large attempt budgets ``rc x |candidates|`` to the
    vectorized CSR engine, see :class:`~repro.dk.rewiring.RewiringEngine`).
    """
    r = ensure_rng(rng)
    sw = Stopwatch()

    with sw.measure("subgraph"):
        subgraph = build_subgraph(walk)
    with sw.measure("estimation"):
        estimates = estimate_local_properties(walk)
    with sw.measure("degree_vector"):
        dv_targets = build_target_degree_vector(estimates, subgraph=subgraph, rng=r)
    with sw.measure("joint_degree_matrix"):
        jdm = build_target_jdm(estimates, dv_targets, subgraph=subgraph, rng=r)
    with sw.measure("construction"):
        graph = build_graph_from_targets(
            dv_targets.counts,
            jdm,
            rng=r,
            subgraph=subgraph,
            target_degrees=dv_targets.target_degrees,
        )
    with sw.measure("rewiring"):
        protected = subgraph.edge_set() if protect_subgraph_edges else None
        engine = RewiringEngine(
            graph,
            estimates.degree_clustering,
            protected_edges=protected,
            rng=r,
            backend=backend,
        )
        report = engine.run(rc=rc, max_attempts=max_rewiring_attempts)

    cleanup_report: CleanupReport | None = None
    if simplify_output:
        with sw.measure("cleanup"):
            protected = subgraph.edge_set()
            cleanup_report = simplify_preserving_jdm(
                graph, rng=r, strict_jdm=True, protected_edges=protected
            )
            if not cleanup_report.is_simple:
                relaxed = simplify_preserving_jdm(
                    graph, rng=r, strict_jdm=False, protected_edges=protected
                )
                cleanup_report = CleanupReport(
                    initial_defects=cleanup_report.initial_defects,
                    remaining_defects=relaxed.remaining_defects,
                    swaps=cleanup_report.swaps + relaxed.swaps,
                    attempts=cleanup_report.attempts + relaxed.attempts,
                )

    return RestorationResult(
        graph=graph,
        subgraph=subgraph,
        estimates=estimates,
        degree_targets=dv_targets,
        jdm_targets=jdm,
        rewiring=report,
        cleanup=cleanup_report,
        stopwatch=sw,
    )


def restore_graph(
    access: GraphAccess,
    target_queried: int,
    seed: Node | None = None,
    rc: float = DEFAULT_REWIRING_COEFFICIENT,
    rng: random.Random | int | None = None,
    max_rewiring_attempts: int | None = None,
    walker: str = "simple",
    backend: str = "auto",
) -> RestorationResult:
    """Crawl ``access`` with a random walk, then restore.

    Parameters
    ----------
    access:
        Neighbor-query facade over the hidden graph.
    target_queried:
        Number of distinct nodes to query before restoration starts.
    seed:
        Walk seed (uniform random when None).
    rc:
        Rewiring coefficient ``RC`` (paper default 500).
    rng:
        Randomness for the walk and every stochastic phase.
    max_rewiring_attempts:
        Optional hard cap on rewiring attempts regardless of ``rc``.
    walker:
        ``"simple"`` (the paper's walk) or ``"non_backtracking"`` — the
        query-efficient variant the paper's Related Work flags as
        combinable with the method.  The NBRW's stationary distribution on
        nodes matches the simple walk's, so the re-weighted estimators
        apply unchanged.
    backend:
        Rewiring compute backend (``"auto" | "python" | "csr"``).
    """
    r = ensure_rng(rng)
    if walker == "simple":
        walk = random_walk(access, target_queried, seed=seed, rng=r)
    elif walker == "non_backtracking":
        from repro.sampling.walkers import non_backtracking_random_walk

        walk = non_backtracking_random_walk(access, target_queried, seed=seed, rng=r)
    else:
        raise ValueError(
            f"unknown walker {walker!r}; use 'simple' or 'non_backtracking'"
        )
    return restore_from_walk(
        walk,
        rc=rc,
        rng=r,
        max_rewiring_attempts=max_rewiring_attempts,
        backend=backend,
    )


def restore_dataset(
    graph: MultiGraph,
    fraction: float,
    rc: float,
    seed: int,
    backend: str = "auto",
    fault_policy: FaultPolicy | None = None,
) -> RestorationResult:
    """Crawl ``fraction`` of ``graph``'s nodes with a random walk, then restore.

    ``graph`` may be the dataset or its frozen (shared-memory) snapshot:
    the crawl reads either the same way.  ``seed`` drives the walk and
    every phase.  Under a ``fault_policy`` the crawl goes through a
    :class:`~repro.sampling.faults.FaultyAccess` whose API-call budget is
    the crawl budget and whose fault stream is a dedicated child of
    ``seed``, as in the experiment harness, so one ``(seed, policy)``
    always replays the same degraded crawl.
    """
    target = crawl_budget(fraction, graph.num_nodes)
    if fault_policy is None:
        access = GraphAccess(graph)
    else:
        access = FaultyAccess(
            graph, fault_policy, fault_seed=spawn_fault_seed(seed), budget=target
        )
    # restore_graph is looked up in this module at call time, so a wrapper
    # installed on it sees these calls too
    return restore_graph(access, target, rc=rc, rng=seed, backend=backend)
