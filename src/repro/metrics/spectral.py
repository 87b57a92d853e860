"""Largest adjacency eigenvalue λ1 (property 12).

Uses ARPACK through scipy for graphs big enough to be worth it, with a
deterministic power-iteration fallback (ARPACK can fail to converge on tiny
or pathological matrices; the fallback also keeps the function dependable
under hypothesis-generated edge cases).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from repro.graph.multigraph import MultiGraph
from repro.metrics.matrix import to_csr


def largest_eigenvalue(
    graph: MultiGraph, tol: float = 1e-8, backend: str = "python"
) -> float:
    """Largest eigenvalue of the adjacency matrix (0.0 for empty graphs).

    The adjacency matrix is symmetric non-negative, so λ1 equals the
    spectral radius; the multigraph convention (multiplicities, doubled
    loops) is preserved.

    Parameters
    ----------
    graph:
        Source multigraph.
    tol:
        ARPACK / power-iteration convergence tolerance.
    backend:
        ``"python"`` builds the sparse adjacency with the per-edge
        reference loop; ``"csr"`` / ``"auto"`` route through
        :mod:`repro.engine.dispatch`, reading the byte-identical matrix
        off a frozen snapshot's cache instead.  The eigensolver itself is
        shared (:func:`matrix_largest_eigenvalue`), so both backends run
        the same arithmetic on the same matrix.
    """
    if backend != "python":
        from repro.engine import dispatch

        return dispatch.largest_eigenvalue(graph, tol=tol, backend=backend)
    n = graph.num_nodes
    if n == 0 or graph.num_edges == 0:
        return 0.0
    return matrix_largest_eigenvalue(to_csr(graph), tol=tol)


def matrix_largest_eigenvalue(a, tol: float = 1e-8) -> float:
    """λ1 of a symmetric non-negative sparse matrix (backend-shared core).

    ARPACK through scipy when the matrix is big enough to be worth it,
    falling back to the deterministic power iteration when ARPACK fails to
    converge (tiny or pathological matrices).

    The Lanczos start vector is pinned (uniform, the power iteration's
    start) rather than left to ARPACK's random default.  The result is
    still equal only to solver tolerance, not to the last bit, even for
    one matrix: five calls on the same 13-node multigraph's matrix
    returned both ``2.0`` and ``2.0000000000000004``, and fresh processes
    gave different sequences.  Outputs that must match byte for byte
    (the serial↔parallel contract, the golden digests) therefore see λ1
    only through the 6-decimal CSV columns.
    """
    n = a.shape[0]
    if n >= 5:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            vals = eigsh(
                a, k=1, which="LA", return_eigenvectors=False, tol=tol, v0=v0
            )
            return float(vals[0])
        except (ArpackNoConvergence, RuntimeError):
            pass  # fall through to power iteration
    return _power_iteration(a, tol=tol)


def _power_iteration(a, tol: float, max_iter: int = 10_000) -> float:
    """λ1 by power iteration on ``A + I``.

    The shift matters on bipartite graphs, where ``-λ1`` is also an
    eigenvalue of ``A``: iterating ``A`` itself never settles there, and
    its Rayleigh quotient stalls strictly below λ1 (4/3 instead of √2 on
    a 3-node path).  Under the shift λ1 + 1 dominates.  The stop is on
    the residual ``||Ax − λx||``, which bounds the distance from λ to an
    eigenvalue of the symmetric ``A``, not on successive quotients.
    """
    n = a.shape[0]
    x = np.ones(n) / np.sqrt(n)
    val = 0.0
    for _ in range(max_iter):
        ax = a @ x
        val = float(x @ ax)
        if np.linalg.norm(ax - val * x) <= tol * max(1.0, abs(val)):
            return val
        y = ax + x
        x = y / np.linalg.norm(y)
    return val
