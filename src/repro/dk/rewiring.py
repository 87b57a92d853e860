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
:class:`RewiringEngine` runs on one of two interchangeable cores selected
by ``backend``:

* ``"python"`` — the reference dict-based core in this module: one
  proposal at a time, scored by
  :func:`~repro.engine.rewiring_kernels.proposal_triangle_deltas`.
* ``"csr"`` — :class:`repro.engine.rewiring_kernels.CSRRewiringCore`:
  proposals screened in vectorized numpy windows over an array adjacency,
  with every potential accept confirmed by the reference's exact
  ascending-class evaluation, so accepted swaps, reports, and the
  resulting graph match the reference for a fixed seed.
* ``"auto"`` — ``csr`` when the run's attempt budget ``R`` reaches
  ``AUTO_KERNEL_THRESHOLDS["rewiring"]`` (see :mod:`repro.engine.dispatch`),
  ``python`` otherwise.  The budget, not the graph's size, decides: the
  CSR core must pay back its construction and, after every accept, the
  scalar replay of each window row that accept made stale, and a run of
  few attempts never does.

Both cores draw proposals from the shared
:class:`~repro.engine.rewiring_kernels.ProposalStream` (blocked draws from
one numpy generator bridged off ``rng``), which is what makes the two
backends' proposal streams bit-compatible with each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.engine.dispatch import resolve_backend
from repro.engine.rewiring_kernels import (
    CSRRewiringCore,
    ProposalStream,
    can_normalize,
    initial_candidates,
    initial_distance,
    proposal_triangle_deltas,
)
from repro.graph.multigraph import MultiGraph, Node
from repro.metrics.clustering import triangles_per_node

Edge = tuple[Node, Node]

DEFAULT_REWIRING_COEFFICIENT = 500  # RC in the paper (Section V-E, Ref. [26])


@dataclass(frozen=True)
class RewiringReport:
    """Outcome of one rewiring run."""

    attempts: int
    accepted: int
    initial_distance: float
    final_distance: float
    num_candidates: int


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
        self._core: _PythonRewiringCore | CSRRewiringCore | None = None

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
        modified in place.
        """
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

    def _default_core(self) -> _PythonRewiringCore | CSRRewiringCore:
        return self._core_for(self._budget(DEFAULT_REWIRING_COEFFICIENT, None))

    def _core_for(self, attempts: int) -> _PythonRewiringCore | CSRRewiringCore:
        """The core, built on first use for a run of ``attempts``."""
        if self._core is None:
            self.backend = resolve_backend(
                self._requested, size=attempts, kernel="rewiring"
            )
            core: type[CSRRewiringCore | _PythonRewiringCore] = (
                CSRRewiringCore if self.backend == "csr" else _PythonRewiringCore
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


class _PythonRewiringCore:
    """The reference dict-based core (one proposal at a time)."""

    def __init__(
        self,
        graph: MultiGraph,
        target_clustering: dict[int, float],
        candidates: list[Edge],
        forbid_loops: bool,
        forbid_parallel: bool,
        rng: random.Random | int | None,
        trace: list | None,
    ) -> None:
        self.graph = graph
        self.target = dict(target_clustering)
        self.forbid_loops = forbid_loops
        self.forbid_parallel = forbid_parallel
        self._trace = trace

        self._degree: dict[Node, int] = graph.degrees()
        self._class_size: dict[int, int] = {}
        for k in self._degree.values():
            self._class_size[k] = self._class_size.get(k, 0) + 1

        # only the per-class triangle sums are tracked incrementally; the
        # per-node counts are folded in once here and never needed again
        self._class_tri: dict[int, float] = {}
        for node, t in triangles_per_node(graph).items():
            k = self._degree[node]
            self._class_tri[k] = self._class_tri.get(k, 0.0) + t

        self._candidates = candidates
        self._norm, self._distance = initial_distance(
            self.clustering_by_degree(), self.target
        )
        self._stream = ProposalStream(rng, len(candidates))

    @property
    def distance(self) -> float:
        return self._distance

    def run(self, attempts: int, patience: int | None) -> RewiringReport:
        if not self._norm:
            attempts = 0  # the target cannot normalize the distance
        initial = self._distance
        accepted = 0
        performed = 0
        stagnant = 0
        for _ in range(attempts):
            performed += 1
            if self._attempt():
                accepted += 1
                stagnant = 0
            else:
                stagnant += 1
                if patience is not None and stagnant >= patience:
                    break
        return RewiringReport(
            attempts=performed,
            accepted=accepted,
            initial_distance=initial,
            final_distance=self._distance,
            num_candidates=len(self._candidates),
        )

    def clustering_by_degree(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for k, size in self._class_size.items():
            if k < 2:
                out[k] = 0.0
            else:
                out[k] = 2.0 * self._class_tri.get(k, 0.0) / (size * k * (k - 1))
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _attempt(self) -> int:
        """One proposal; returns 1 when accepted."""
        i1, c1, i2, c2 = self._stream.next()
        cands = self._candidates
        e1 = cands[i1]
        # orient e1: the chosen side's degree must be matched by e2's side
        if c1 < 0.5:
            x, y = e1
        else:
            y, x = e1
        kx = self._degree[x]

        if i2 == i1:
            return 0
        a, b = cands[i2]
        if self._degree[a] == kx and self._degree[b] == kx:
            if c2 < 0.5:
                a, b = b, a
        elif self._degree[b] == kx:
            a, b = b, a
        elif self._degree[a] != kx:
            return 0  # no endpoint of e2 matches deg(x): not a valid swap

        # proposal: remove (x, y), (a, b); add (x, b), (a, y)
        if x == a:
            return 0  # identity swap
        if self.forbid_loops and (x == b or a == y):
            return 0
        if self.forbid_parallel and (
            self.graph.multiplicity(x, b) > 0 or self.graph.multiplicity(a, y) > 0
        ):
            # adding (x,b) when (x,b) already exists would create a parallel
            # edge; the check is conservative for the x==b/a==y loop cases,
            # which the loop guard above already rejected
            return 0

        delta_tri = proposal_triangle_deltas(self.graph, x, y, a, b)
        new_distance = self._distance_after(delta_tri)
        if new_distance >= self._distance:
            return 0

        # accept: mutate the graph, the bookkeeping, and the candidate list
        self.graph.remove_edge(x, y)
        self.graph.remove_edge(a, b)
        self.graph.add_edge(x, b)
        self.graph.add_edge(a, y)
        for node, dt in delta_tri.items():
            if dt:
                k = self._degree[node]
                self._class_tri[k] = self._class_tri.get(k, 0.0) + dt
        self._distance = new_distance
        cands[i1] = (x, b)
        cands[i2] = (a, y)
        if self._trace is not None:
            self._trace.append((x, y, a, b))
        return 1

    def _distance_after(self, delta_tri: dict[Node, float]) -> float:
        """Distance if ``delta_tri`` were applied (only affected classes
        re-evaluated)."""
        class_delta: dict[int, float] = {}
        for node, dt in delta_tri.items():
            if dt:
                k = self._degree[node]
                class_delta[k] = class_delta.get(k, 0.0) + dt
        if not class_delta:
            return self._distance
        # ascending-class iteration: a canonical summation order that the
        # CSR backend reproduces exactly from its per-class delta rows
        dist = self._distance * self._norm
        for k in sorted(class_delta):
            dS = class_delta[k]
            size = self._class_size[k]
            if k < 2:
                continue
            denom = size * k * (k - 1)
            old_c = 2.0 * self._class_tri.get(k, 0.0) / denom
            new_c = 2.0 * (self._class_tri.get(k, 0.0) + dS) / denom
            tgt = self.target.get(k, 0.0)
            dist += abs(new_c - tgt) - abs(old_c - tgt)
        return dist / self._norm
