"""Damped-Newton core shared by the semilinear Monge-Ampère solvers.

Solves, for phi on the periodic grid,

    theta + curvature(phi) = sum_k exp(scale_k * (phi - offset_k)) * rho_k

with scale_k > 0 and rho_k >= 0.  The Jacobian of the right-hand side is a
nonnegative diagonal, so every Newton matrix

    diag(sum_k scale_k * e_k) - curvature_matrix

is a symmetric M-matrix; it is invertible whenever some rho_k is not
identically zero (full-grid case) or a Dirichlet mask pins the constant mode
(local case).  A backtracking line search on the squared residual norm keeps
the iteration inside the monotone basin.

Linear solves: -C is built once per n and cached with its diagonal
positions; the residual applies it, the obstacle solver's free-set solves
restrict it, and every Newton matrix is written into its pattern: a step
copies its data and adds the weights on the diagonal.  The first Newton
matrix of a call is factored once by sparse LU (minimum-degree ordering on
A^T + A, which suits the symmetric pattern; no relaxed supernodes and
panels of 10 columns, which on the five-point pattern make a factorization
about 40% and a solve 15-20% cheaper than SuperLU's defaults, with the same
ordering, pivots and fill).
Each later step solves its own matrix by conjugate gradients preconditioned
with that factorization, a lagged-Jacobian preconditioner: the matrices of
consecutive steps differ only in the diagonal.  If CG does not reach the
relative residual ``_CG_RTOL`` within ``_CG_MAXITER`` iterations, the current
matrix is factored and solved directly, and that factorization preconditions
the steps after it.  The CG loop, :func:`conjugate_gradients`, is shared with
the obstacle solver's free-set solves; its dot products avoid BLAS, so a
solve gives the same bits at any BLAS thread count.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NewtonStall, NonConvergence
from .torus import laplacian_matrix

_EXP_CAP = 500.0  # cap on exponents; keeps overflow out of the line search
_CG_RTOL = 1e-12  # relative residual of each preconditioned CG solve
_CG_MAXITER = 50  # CG iterations before the step refactors and solves directly

__all__ = ["SolverReport", "collect_reports", "conjugate_gradients", "newton_semilinear"]


def _dot(a, b):
    # einsum, not BLAS: no worker threads, and the same sum at any thread count
    return float(np.einsum("i,i->", a, b))


def conjugate_gradients(matvec, b, precondition, rtol, maxiter):
    """Preconditioned conjugate gradients for a symmetric positive definite system.

    Starts from x = 0 and stops once the residual norm is at most ``rtol``
    times that of ``b``.  ``matvec`` applies the operator and
    ``precondition`` the preconditioner's inverse.  Returns ``(x,
    iterations, converged)``.
    """
    x = np.zeros_like(b)
    stop = rtol * np.sqrt(_dot(b, b))
    if stop == 0.0:
        return x, 0, True
    r = b.copy()
    z = precondition(r)
    p = z
    rz = _dot(r, z)
    for it in range(1, maxiter + 1):
        q = matvec(p)
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        if np.sqrt(_dot(r, r)) <= stop:
            return x, it, True
        z = precondition(r)
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
    return x, maxiter, False


# the list that collect_reports opened, None outside it
_COLLECTED: ContextVar[list | None] = ContextVar("collected_reports", default=None)


@dataclass
class SolverReport:
    """Iteration diagnostics shared by the solvers.

    ``factorizations`` and ``cg_iterations`` count the work of Newton's
    linear solves.  For PSOR, ``iterations`` counts sweeps,
    ``coarse_sweeps`` the sweeps of its coarse-grid start (0 for Newton),
    ``cg_iterations`` the CG iterations of its active-set steps, and
    ``factorizations`` stays 0.  Inside :func:`collect_reports` every
    report appends itself to the collected list when it is built.
    """

    method: str
    iterations: int
    residual: float
    converged: bool
    history: list = field(default_factory=list)
    damping: list = field(default_factory=list)
    factorizations: int = 0
    cg_iterations: int = 0
    coarse_sweeps: int = 0

    def __post_init__(self):
        if (collected := _COLLECTED.get()) is not None:
            collected.append(self)


@contextmanager
def collect_reports():
    """Collect every :class:`SolverReport` built inside the block, in call order."""
    token = _COLLECTED.set([])
    try:
        yield _COLLECTED.get()
    finally:
        _COLLECTED.reset(token)


@lru_cache(maxsize=None)
def _curvature_operators(n):
    """The negated curvature matrix -C of an n x n grid and its diagonal.

    Returns ``(neg, diag)``: ``neg`` is -laplacian_matrix(n) / (2 pi) in
    CSR with sorted indices, and ``diag`` the positions of its diagonal in
    ``neg.data``.  Every Newton and free-set solve at size n shares them,
    so their arrays are read-only.
    """
    neg = -(laplacian_matrix(n) / (2.0 * np.pi)).tocsr()
    diag = _diagonal_positions(neg)
    for arr in (diag, neg.data, neg.indices, neg.indptr):
        arr.flags.writeable = False
    return neg, diag


def _diagonal_positions(mat):
    """Positions in ``mat.data`` of the diagonal of a CSR matrix that stores it in every row."""
    rows = np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype), np.diff(mat.indptr))
    return np.flatnonzero(mat.indices == rows)


class _LaggedLU:
    """Solves with diag(w) - C for a sequence of weights w, reusing one LU.

    C is the curvature matrix of an n x n grid, restricted to the sites
    ``idx`` when given (once per call).  Every matrix is written into the
    pattern of -C: a copy of its data plus w at the diagonal positions,
    wrapped with the shared index arrays.  That is sp.diags(w) - C bit for
    bit, since w - c == (-c) + w and the pattern stores every diagonal
    entry.  The first solve factors its matrix; later ones run CG
    preconditioned with that factorization and refactor only when CG misses
    ``_CG_RTOL`` within ``_CG_MAXITER`` iterations.
    """

    def __init__(self, n, idx=None):
        neg, diag = _curvature_operators(n)
        if idx is not None:
            neg = neg[idx][:, idx]
            diag = _diagonal_positions(neg)
        self.neg = neg
        self.diag = diag
        self.lu = None
        self.factorizations = 0
        self.cg_iterations = 0

    def matrix(self, w):
        data = self.neg.data.copy()
        data[self.diag] += w
        return sp.csr_matrix((data, self.neg.indices, self.neg.indptr), shape=self.neg.shape)

    def solve(self, w, g):
        m = self.matrix(w)
        if self.lu is not None:
            delta, its, converged = conjugate_gradients(
                m.dot, g, self.lu.solve, _CG_RTOL, _CG_MAXITER
            )
            self.cg_iterations += its
            if converged:
                return delta
        # m is symmetric, so m.T, the CSC view of its arrays, is m; minimum
        # degree on A^T + A suits the symmetric pattern (about half the fill
        # of the default column ordering).  relax=1 turns off SuperLU's
        # relaxed supernodes (default 10) and panel_size=10 halves the
        # default panel of 20 columns: on this pattern the merged dense
        # blocks cost more than they save.  Ordering, pivots and fill stay
        # the default's; at n = 64 a factorization takes 8.8 ms against
        # 13.7 ms and a solve 0.27 ms against 0.34 ms (2 vCPUs, one BLAS
        # thread).
        self.lu = spla.splu(m.T, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=10)
        self.factorizations += 1
        return self.lu.solve(g)


def newton_semilinear(
    theta: np.ndarray,
    terms,
    init: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 80,
    free_mask: np.ndarray | None = None,
):
    """Damped Newton on the residual theta + curvature(phi) - sum_k exp(...)*rho_k.

    ``terms`` is a sequence of ``(scale, offset, rho)`` with offset and rho
    full-grid arrays.  When ``free_mask`` is given, only masked sites are
    unknowns and ``init`` supplies the Dirichlet values elsewhere.  Returns
    ``(values, SolverReport)``; raises :class:`NewtonStall` when the line
    search collapses and :class:`NonConvergence` on iteration exhaustion,
    both carrying the best iterate.
    """
    n = theta.shape[0]
    neg = _curvature_operators(n)[0]
    th = theta.ravel()
    flat_terms = [
        (float(s), np.asarray(off, dtype=float).ravel(), np.asarray(rho, dtype=float).ravel())
        for s, off, rho in terms
    ]
    phi = np.asarray(init, dtype=float).ravel().copy()
    idx = None if free_mask is None else np.flatnonzero(np.asarray(free_mask).ravel())
    if idx is not None and idx.size == 0:
        raise ValueError("free mask selects no unknowns")

    def residual(p):
        rhs = np.zeros_like(p)
        weight = np.zeros_like(p)
        for s, off, rho in flat_terms:
            e = np.exp(np.minimum(s * (p - off), _EXP_CAP)) * rho
            rhs += e
            weight += s * e
        g = th - neg @ p - rhs
        if idx is not None:
            g = g[idx]
        return g, weight

    solver = _LaggedLU(n, idx)

    def report(it, res_inf, converged):
        return SolverReport(
            "newton", it, res_inf, converged, history, damping,
            solver.factorizations, solver.cg_iterations,
        )

    g, weight = residual(phi)
    merit = _dot(g, g)
    history, damping = [], []
    it = 0
    while it < max_iter:
        res_inf = float(np.abs(g).max())
        history.append(res_inf)
        if res_inf <= tol:
            return phi.reshape(n, n), report(it, res_inf, True)
        it += 1
        delta = solver.solve(weight if idx is None else weight[idx], g)
        full_delta = delta
        if idx is not None:
            full_delta = np.zeros_like(phi)
            full_delta[idx] = delta
        step = 1.0
        stalled = False
        while True:
            g_new, weight_new = residual(phi + step * full_delta)
            merit_new = _dot(g_new, g_new)
            if np.isfinite(merit_new) and (
                merit_new <= merit * (1.0 - 1e-4 * step) or merit_new <= tol * tol
            ):
                break
            step *= 0.5
            if step < 2.0**-20:
                # the search collapses only at the rounding floor of the
                # merit; close enough to the target is accepted, anything
                # else is a genuine stall
                if res_inf <= 1e3 * tol:
                    stalled = True
                    break
                report(it, res_inf, False)  # so that a collected run lists the failed solve
                raise NewtonStall(
                    f"no acceptable Newton step at residual {res_inf:.3e}",
                    best=phi.reshape(n, n),
                    residual=res_inf,
                    iterations=it,
                )
        if stalled:
            return phi.reshape(n, n), report(it, res_inf, res_inf <= tol)
        damping.append(step)
        phi = phi + step * full_delta
        g, weight, merit = g_new, weight_new, merit_new
    res_inf = float(np.abs(g).max())
    report(it, res_inf, False)
    raise NonConvergence(
        f"Newton used {max_iter} iterations, residual {res_inf:.3e}",
        best=phi.reshape(n, n),
        residual=res_inf,
        iterations=it,
    )
