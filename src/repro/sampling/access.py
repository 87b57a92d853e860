"""The paper's access model as an enforced interface.

Section III-A assumes: (i) querying node ``v`` returns its incident edge
set ``N(v)``; (ii) complete or random access to the graph is not feasible;
(iii) the graph is static.  :class:`GraphAccess` wraps a hidden
:class:`MultiGraph` and exposes *only* neighbor queries plus a seed-node
draw, counting distinct queried nodes so that experiments can stop a crawl
at "x% of nodes queried" without peeking at the full graph through any other
code path.

All crawlers in this package take a ``GraphAccess``; passing a raw graph is
a type error by design.  Tests assert that crawlers never exceed their query
budgets and never touch non-queried adjacency.
"""

from __future__ import annotations

import random

from repro.errors import BudgetExhaustedError, SamplingError
from repro.graph.multigraph import MultiGraph, Node
from repro.utils.rng import ensure_rng


class GraphAccess:
    """Neighbor-query facade over a hidden graph, with query accounting.

    Parameters
    ----------
    graph:
        The hidden graph.  Held privately; callers interact only through
        :meth:`query`, :meth:`degree`, and :meth:`random_seed`.  A frozen
        :class:`~repro.engine.csr.CSRGraph` (a shared-memory snapshot
        included) serves the same queries in the same node order, so a
        crawl over it equals the crawl over its :class:`MultiGraph`.
    budget:
        Optional hard cap on the number of *distinct* queried nodes.  A
        crawler that exceeds it gets a :class:`SamplingError`, which is how
        experiments enforce the "x% queried" stopping rule defensively.
    """

    def __init__(self, graph: MultiGraph, budget: int | None = None) -> None:
        if graph.num_nodes == 0:
            raise SamplingError("cannot sample from an empty graph")
        self._graph = graph
        self._budget = budget
        self._queried: dict[Node, list[Node]] = {}

    # ------------------------------------------------------------------
    # the three permitted operations
    # ------------------------------------------------------------------
    def query(self, node: Node) -> list[Node]:
        """Return the endpoints of ``N(node)``, one entry per incident edge.

        Repeat queries of the same node are free (the result is memoized),
        matching real crawler implementations that cache responses.
        """
        if node in self._queried:
            return self._queried[node]
        if self._budget is not None and len(self._queried) >= self._budget:
            raise BudgetExhaustedError(
                f"query budget of {self._budget} distinct nodes exhausted"
            )
        if not self._graph.has_node(node):
            raise SamplingError(f"queried node {node!r} does not exist")
        nbrs = self._graph.incident_edge_endpoints(node)
        self._queried[node] = nbrs
        return nbrs

    def degree(self, node: Node) -> int:
        """Degree of a node; only valid after the node has been queried.

        The re-weighted estimators need ``d(x_i)`` for sampled nodes, all of
        which were queried during the walk; demanding a prior query keeps
        the access model honest.
        """
        if node not in self._queried:
            raise SamplingError(
                f"degree of {node!r} requested before the node was queried"
            )
        return len(self._queried[node])

    def random_seed(self, rng: random.Random | int | None = None) -> Node:
        """Uniform random seed node.

        The paper's experimental design selects seeds uniformly at random
        from the node set; this is the one place the wrapper touches global
        information, mirroring that experimental convention (a practical
        crawler would instead be handed a seed account).
        """
        r = ensure_rng(rng)
        nodes = list(self._graph.nodes())
        return r.choice(nodes)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def fault_policy(self):
        """The injected :class:`~repro.sampling.faults.FaultPolicy`, if any.

        ``None`` on the ideal access.  Crawlers read this to decide
        whether to run strictly (ideal: shortfalls raise) or leniently
        (a non-null policy: skip faulted nodes, re-seed dead crawls,
        keep partial results on budget exhaustion).
        """
        return None

    @property
    def queried_nodes(self) -> set[Node]:
        """Set of distinct nodes queried so far."""
        return set(self._queried)

    @property
    def num_queried(self) -> int:
        """Number of distinct nodes queried so far."""
        return len(self._queried)

    @property
    def budget(self) -> int | None:
        """The distinct-node query budget (None = unlimited)."""
        return self._budget

    def remaining(self) -> int | None:
        """Queries remaining under the budget (None = unlimited)."""
        if self._budget is None:
            return None
        return self._budget - len(self._queried)

    def budget_exhausted(self) -> bool:
        """True when no further *new* nodes may be queried."""
        return self._budget is not None and len(self._queried) >= self._budget

    def fraction_queried(self) -> float:
        """Fraction of the hidden graph's nodes queried so far."""
        return len(self._queried) / self._graph.num_nodes

    @property
    def hidden_graph_num_nodes(self) -> int:
        """Number of nodes of the hidden graph.

        Exposed for experiment bookkeeping (computing "x% of nodes"), not
        for use by crawlers.
        """
        return self._graph.num_nodes
