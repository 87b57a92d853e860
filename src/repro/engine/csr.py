"""Frozen CSR (compressed sparse row) snapshot of a :class:`MultiGraph`.

The pure-Python :class:`~repro.graph.multigraph.MultiGraph` is a
dict-of-dicts optimized for incremental mutation (rewiring, stub matching).
Every read-heavy workload — walk simulation, joint-degree accumulation,
triangle counting — pays interpreter overhead per edge on that layout.
:class:`CSRGraph` is the complementary representation: an immutable,
array-backed snapshot on which the kernels in
:mod:`repro.engine.kernels` operate at numpy speed.

Layout
------
The *edge-slot* expansion of the adjacency structure is stored:

* ``indptr`` — ``int64[n + 1]`` row offsets.
* ``indices`` — ``int64[2m]``; ``indices[indptr[i]:indptr[i + 1]]`` lists the
  endpoint index of every edge incident to node ``i``, repeated by
  multiplicity, with a self-loop contributing node ``i`` twice (the loop
  occupies two edge slots, matching
  :meth:`MultiGraph.incident_edge_endpoints`).

With this expansion ``degree(i) == indptr[i + 1] - indptr[i]`` holds with no
special casing, a uniform draw over a node's slots is exactly the walk's
"choose an incident edge uniformly at random" step, and the scipy adjacency
matrix (``A_uu`` = twice the loop count, the paper's convention) is one
``sum_duplicates`` away.

``freeze`` is the only step that walks the adjacency in Python: one pass
gathers every node's neighbor positions and multiplicities, then one
``cumsum`` builds ``indptr`` and one ``np.repeat`` builds ``indices``.
Every kernel afterwards touches the arrays through vectorized numpy/scipy
operations.  ``thaw`` restores an equivalent :class:`MultiGraph` (same
nodes, same multiplicities), closing the round trip that the equivalence
tests assert.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping

import numpy as np
from scipy import sparse

from repro.errors import GraphError
from repro.graph.multigraph import MultiGraph, Node

#: Index dtypes a snapshot may carry.  ``freeze`` always produces int64;
#: the snapshot store (:mod:`repro.engine.store`) loads int32 indices
#: zero-copy when every node id fits, and the kernels accept either.
_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def _frozen_index_array(arr: np.ndarray, *, widen: bool = False) -> np.ndarray:
    """Contiguous read-only index array, without copying when possible.

    ``widen=True`` forces int64 (the ``indptr`` contract); otherwise int32
    input is kept as-is so mmap/shared-memory snapshots stay zero-copy.
    """
    if widen or arr.dtype not in _INDEX_DTYPES:
        out = np.ascontiguousarray(arr, dtype=np.int64)
    else:
        out = np.ascontiguousarray(arr)
    if out.flags.writeable and out is not arr:
        out.setflags(write=False)
    elif out.flags.writeable:
        out = out.view()
        out.setflags(write=False)
    return out


class _RangeIndex(Mapping):
    """O(1) node-id -> position mapping for graphs labeled ``0..n-1``.

    Store-loaded and shared-memory snapshots carry their nodes implicitly
    as ``range(n)``; materializing an n-entry dict on attach would make
    "zero-copy" attach O(n) in Python, so this stands in for the dict.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __getitem__(self, u: Node) -> int:
        if (
            isinstance(u, (int, np.integer))
            and not isinstance(u, bool)
            and 0 <= u < self._n
        ):
            return int(u)
        raise KeyError(u)

    def __iter__(self) -> Iterator[Node]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n


class CSRGraph:
    """Immutable array-backed multigraph snapshot.

    Construct via :func:`freeze`; the arrays are marked read-only and the
    instance must be treated as frozen (kernels cache derived matrices on
    it).  Node ids are arbitrary hashables; positional index ``i`` maps to
    ``nodes[i]`` and back through :attr:`index`.
    """

    __slots__ = (
        "_nodes",
        "_index",
        "_indptr",
        "_indices",
        "_num_edges",
        "_degree_cache",
        "_adjacency_cache",
        "_triangle_cache",
        "_lcc_cache",
        "__weakref__",
    )

    def __init__(
        self,
        nodes: tuple[Node, ...] | range,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_edges: int,
        *,
        degree: np.ndarray | None = None,
    ) -> None:
        if indptr.shape != (len(nodes) + 1,):
            raise GraphError("indptr must have num_nodes + 1 entries")
        if indptr[-1] != indices.shape[0]:
            raise GraphError("indices length must equal indptr[-1]")
        if indices.shape[0] != 2 * num_edges:
            raise GraphError("slot count must equal 2 * num_edges")
        self._nodes = nodes
        if isinstance(nodes, range):
            if nodes != range(len(nodes)):
                raise GraphError("range nodes must be exactly range(num_nodes)")
            self._index: Mapping[Node, int] = _RangeIndex(len(nodes))
        else:
            self._index = {u: i for i, u in enumerate(nodes)}
        self._indptr = _frozen_index_array(indptr, widen=True)
        self._indices = _frozen_index_array(indices)
        self._num_edges = int(num_edges)
        if degree is not None and degree.shape != (len(nodes),):
            raise GraphError("degree vector must have num_nodes entries")
        self._degree_cache = degree
        self._adjacency_cache: dict[bool, sparse.csr_matrix] = {}
        self._triangle_cache: np.ndarray | None = None
        self._lcc_cache: "CSRGraph | None" = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges (parallels individually, loops once)."""
        return self._num_edges

    @property
    def node_list(self) -> tuple[Node, ...] | range:
        """Positional index -> original node id."""
        return self._nodes

    @property
    def index(self) -> Mapping[Node, int]:
        """Original node id -> positional index."""
        return self._index

    @property
    def indptr(self) -> np.ndarray:
        """Read-only ``int64[n + 1]`` row offsets."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only ``int64[2m]`` (or ``int32[2m]``) edge-slot endpoints."""
        return self._indices

    def degree_array(self) -> np.ndarray:
        """``int64[n]`` degree vector (loops contribute 2)."""
        if self._degree_cache is not None:
            return self._degree_cache
        return np.diff(self._indptr)

    def neighbor_slots(self, i: int) -> np.ndarray:
        """Edge-slot endpoints of positional node ``i`` (read-only view)."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    def adjacency_matrix(self, drop_loops: bool = False) -> sparse.csr_matrix:
        """Scipy CSR adjacency with ``A_uu`` = twice the loop count.

        Built vectorized from the slot arrays on first use and cached (one
        slot per ``drop_loops`` value); the matrix is shared by every kernel
        run on this snapshot, so repeated metrics pay the construction once.
        """
        cached = self._adjacency_cache.get(drop_loops)
        if cached is not None:
            return cached
        n = self.num_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), self.degree_array())
        dst = self._indices
        if drop_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        mat = sparse.csr_matrix(
            (np.ones(src.shape[0], dtype=np.float64), (src, dst)), shape=(n, n)
        )
        mat.sum_duplicates()
        self._adjacency_cache[drop_loops] = mat
        return mat

    # ------------------------------------------------------------------
    # MultiGraph-compatible queries (GraphAccess duck-typing surface)
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        """Iterate over node ids in positional order."""
        return iter(self._nodes)

    def has_node(self, u: Node) -> bool:
        """True if ``u`` is a node of the snapshot."""
        return u in self._index

    def degree(self, u: Node) -> int:
        """Degree of ``u`` (loops contribute 2)."""
        try:
            i = self._index[u]
        except KeyError:
            raise GraphError(f"node {u!r} not in graph") from None
        return int(self._indptr[i + 1] - self._indptr[i])

    def incident_edge_endpoints(self, u: Node) -> list[Node]:
        """Endpoints of the edges incident to ``u``, repeated by multiplicity.

        Same contract as :meth:`MultiGraph.incident_edge_endpoints`, so a
        :class:`~repro.sampling.access.GraphAccess` can serve neighbor
        queries straight from the snapshot.
        """
        try:
            i = self._index[u]
        except KeyError:
            raise GraphError(f"node {u!r} not in graph") from None
        nodes = self._nodes
        return [nodes[j] for j in self.neighbor_slots(i)]

    def __contains__(self, u: Node) -> bool:
        return u in self._index

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges})"


def freeze(graph: MultiGraph) -> CSRGraph:
    """Snapshot ``graph`` into a :class:`CSRGraph`.

    The engine's only Python pass over the adjacency (one gather per
    adjacency entry, then one ``cumsum`` and one ``np.repeat``); prefer
    :func:`repro.engine.dispatch.ensure_csr`, which caches one snapshot
    per graph version so repeated metrics share it.

    Parameters
    ----------
    graph:
        Any multigraph — parallels and loops are carried through the
        edge-slot expansion (a loop occupies two slots).

    Returns
    -------
    CSRGraph
        Immutable snapshot.  Node positional order is the graph's
        insertion order; each node's slot segment preserves its
        adjacency-dict insertion order (parallel slots contiguous), so
        :func:`thaw` can rebuild an identically ordered structure and the
        order-sensitive kernels can replay reference scan orders.
    """
    nodes = tuple(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    degrees: list[int] = []
    neighbors: list[int] = []
    multiplicities: list[int] = []
    for u in nodes:
        adjacency = graph.adjacency_view(u)
        degrees.append(sum(adjacency.values()))
        neighbors.extend(map(index.__getitem__, adjacency))
        multiplicities.extend(adjacency.values())
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.repeat(
        np.array(neighbors, dtype=np.int64),
        np.array(multiplicities, dtype=np.int64),
    )
    return CSRGraph(nodes, indptr, indices, graph.num_edges)


def thaw(csr: CSRGraph) -> MultiGraph:
    """Rebuild a :class:`MultiGraph` equivalent to the snapshot.

    Parameters
    ----------
    csr:
        Any snapshot, typically from :func:`freeze`.

    Returns
    -------
    MultiGraph
        Same node set (same insertion order), same edge multiset —
        multiplicities and loops included — and therefore identical values
        for every structural property; the round trip the equivalence
        tests assert.
    """
    g = MultiGraph()
    nodes = csr.node_list
    for u in nodes:
        g.add_node(u)
    for i, u in enumerate(nodes):
        counts = Counter(csr.neighbor_slots(i).tolist())
        for j, a in counts.items():
            if j > i:
                for _ in range(a):
                    g.add_edge(u, nodes[j])
            elif j == i:
                for _ in range(a // 2):
                    g.add_edge(u, u)
    return g
