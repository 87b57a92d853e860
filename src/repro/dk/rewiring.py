"""Clustering-targeting edge rewiring (the paper's Algorithm 6).

Repeatedly propose a double-edge swap between two candidate edges whose
chosen endpoints have equal degree — ``(x, y), (a, b) -> (x, b), (a, y)``
with ``deg(x) == deg(a)`` — and accept it iff the normalized L1 distance
between the graph's degree-dependent clustering ``{c̄(k)}`` and the target
``{c̄^(k)}`` strictly decreases.  Equal-degree swaps preserve every node's
degree and the joint degree matrix, so the 2K targets realized by the
construction phase survive rewiring untouched.

Two engine features implement the proposed method's innovations over the
Gjoka et al. procedure:

* a *protected* edge set (the sampled subgraph's edges) excluded from the
  candidate pool, so rewiring can never disturb the observed structure, and
* incremental triangle bookkeeping — a proposal's triangle change is
  computed in O(k̄) from the common neighbors of the edges it touches, and
  only the per-degree-class triangle sums are kept and updated on accept,
  instead of recounting, which is what makes ``R = RC x |candidates|``
  attempts tractable.

The number of attempts is ``R = rc x |candidate edges|`` with ``rc = 500``
in the paper (configurable; docs/BENCHMARKS.md lists the smaller values
the benchmarks use).

Backends
--------
This module is the facade; both cores live in
:mod:`repro.engine.rewiring_kernels`.  :class:`RewiringEngine` runs on the
one ``backend`` selects:

* ``"python"`` — :class:`~repro.engine.rewiring_kernels.PythonRewiringCore`,
  the reference dict-based core: one proposal at a time, scored by
  :func:`~repro.engine.rewiring_kernels.proposal_triangle_deltas`.
* ``"csr"`` — :class:`~repro.engine.rewiring_kernels.CSRRewiringCore`, the
  reference core plus a screen: proposals screened in vectorized numpy
  windows over an array adjacency, every potential accept scored by the
  reference's distance rule and committed by its commit, corner and stale
  rows sent to its ``_propose``, so accepted swaps, reports, and the
  resulting graph match the reference for a fixed seed.
* ``"auto"`` — ``csr`` when the run's attempt budget ``R`` reaches
  ``AUTO_KERNEL_THRESHOLDS["rewiring"]`` (see :mod:`repro.engine.dispatch`),
  ``python`` otherwise.  The budget, not the graph's size, decides: the
  CSR core must pay back its construction and, after every accept, the
  replay of each window row that accept made stale, and a run of few
  attempts never does.

Both cores draw proposals from the shared
:class:`~repro.engine.rewiring_kernels.ProposalStream` (blocked draws from
one numpy generator bridged off ``rng``), which is what makes the two
backends' proposal streams bit-compatible with each other.
"""

from __future__ import annotations

import math
import random

from repro.engine.dispatch import resolve_backend
from repro.engine.rewiring_kernels import (
    CSRRewiringCore,
    PythonRewiringCore,
    RewiringReport,
    can_normalize,
    initial_candidates,
)
from repro.errors import ExperimentError
from repro.graph.multigraph import MultiGraph, Node

Edge = tuple[Node, Node]

DEFAULT_REWIRING_COEFFICIENT = 500  # RC in the paper (Section V-E, Ref. [26])


class RewiringEngine:
    """Stateful rewiring over a graph with fixed degrees.

    Parameters
    ----------
    graph:
        Graph to rewire in place (degrees never change).
    target_clustering:
        ``{c̄^(k)}`` to approach (sparse; missing degrees mean target 0).
    protected_edges:
        Pairs never to be removed, spelled either way round (the sampled
        subgraph's edge set in the proposed method; empty for Gjoka et
        al.).  One candidate copy per parallel multiplicity beyond the
        protected copy remains rewireable.
    forbid_loops / forbid_parallel:
        Reject proposals that would create self-loops / parallel edges.
        The paper's model permits both; rejecting them (default) matches
        the reference implementation and keeps generated graphs close to
        simple.
    backend:
        ``"auto"`` (default), ``"python"``, or ``"csr"`` — see the module
        docstring.  Resolved once, when the core is built: by :meth:`run`
        against its attempt budget, or by the first earlier read of
        :attr:`distance` or :meth:`clustering_by_degree` against the
        default budget ``DEFAULT_REWIRING_COEFFICIENT x |candidates|``.
        :attr:`backend` names the resolved core (``None`` until then).
    record_trace:
        When true, every accepted swap is appended to :attr:`trace` as an
        ``(x, y, a, b)`` tuple — the backend equivalence tests compare
        these traces across backends.

    The core is built once and never discarded: building one draws a
    64-bit seed for its proposal stream from ``rng``, so a discarded core
    would shift every later draw.
    """

    def __init__(
        self,
        graph: MultiGraph,
        target_clustering: dict[int, float],
        protected_edges: set[Edge] | None = None,
        forbid_loops: bool = True,
        forbid_parallel: bool = True,
        rng: random.Random | int | None = None,
        backend: str = "auto",
        record_trace: bool = False,
    ) -> None:
        self.graph = graph
        self.backend: str | None = None
        self.trace: list[tuple[Node, Node, Node, Node]] | None = (
            [] if record_trace else None
        )
        self._target = dict(target_clustering)
        self._forbid_loops = forbid_loops
        self._forbid_parallel = forbid_parallel
        self._rng = rng
        self._requested = backend
        self._candidates = initial_candidates(graph, protected_edges or set())
        # the climb cannot move with fewer than two candidates, nor from a
        # target whose sum cannot normalize a distance (all zero, subnormal;
        # a core also finds a sum too small for its initial distance)
        self._climbs = len(self._candidates) >= 2 and can_normalize(
            sum(self._target.values())
        )
        self._core: PythonRewiringCore | None = None

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def distance(self) -> float:
        """Current normalized L1 distance to the target clustering."""
        return self._default_core().distance

    @property
    def num_candidates(self) -> int:
        """Number of rewireable edges."""
        return len(self._candidates)

    def run(
        self,
        rc: float = DEFAULT_REWIRING_COEFFICIENT,
        max_attempts: int | None = None,
        patience: int | None = None,
    ) -> RewiringReport:
        """Perform ``R = rc x |candidates|`` rewiring attempts.

        ``max_attempts`` caps ``R`` when set.  ``patience`` enables early
        stopping: when that many consecutive proposals are rejected, the
        hill climb has effectively converged and the loop exits (a
        practical speedup toward the paper's "scalable restoration" future
        work; disabled by default for protocol fidelity).  Returns a
        report counting the attempts actually performed; the graph is
        modified in place.  ``rc`` must be finite and non-negative
        (:class:`~repro.errors.ExperimentError` otherwise); ``rc = 0`` is
        a climb of no attempts.
        """
        if not (math.isfinite(rc) and rc >= 0):
            raise ExperimentError(f"rc must be a finite number >= 0, got {rc}")
        attempts = self._budget(rc, max_attempts)
        return self._core_for(attempts).run(attempts, patience)

    def clustering_by_degree(self) -> dict[int, float]:
        """Current ``{c̄(k)}`` of the graph from the incremental state."""
        return self._default_core().clustering_by_degree()

    # ------------------------------------------------------------------
    # core selection
    # ------------------------------------------------------------------
    def _budget(self, rc: float, max_attempts: int | None) -> int:
        """Attempts a run performs without patience (0 if it cannot climb)."""
        if not self._climbs:
            return 0
        attempts = int(rc * len(self._candidates))
        if max_attempts is not None:
            attempts = min(attempts, max_attempts)
        return attempts

    def _default_core(self) -> PythonRewiringCore:
        return self._core_for(self._budget(DEFAULT_REWIRING_COEFFICIENT, None))

    def _core_for(self, attempts: int) -> PythonRewiringCore:
        """The core, built on first use for a run of ``attempts``."""
        if self._core is None:
            self.backend = resolve_backend(
                self._requested, size=attempts, kernel="rewiring"
            )
            core: type[PythonRewiringCore] = (
                CSRRewiringCore if self.backend == "csr" else PythonRewiringCore
            )
            self._core = core(
                self.graph,
                self._target,
                self._candidates,
                forbid_loops=self._forbid_loops,
                forbid_parallel=self._forbid_parallel,
                rng=self._rng,
                trace=self.trace,
            )
        return self._core

