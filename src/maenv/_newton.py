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

Linear solves: every Newton system (diag(w) - C) delta = g is solved on
the black half of the grid.  The five-point stencil couples only sites of
opposite colour and the diagonal D = w + 4c (c = 1 / (2 pi h^2)) is
positive, so the red unknowns drop out exactly (:class:`_RedBlack`): the
black ones solve the nine-point SPD system S = D_b - c^2 G D_r^-1 G^T, G
the unit black <- red gather, and one gather gives the red half.  A step
writes S's data into a two-hop pattern built once per call, or once per
n for the whole grid, in O(nnz) with no sparse product.  The first S of a
call is factored once by sparse LU (minimum-degree ordering on A^T + A,
which suits the symmetric pattern; no relaxed supernodes and panels of 10
columns, which make a factorization cheaper than SuperLU's defaults with
the same ordering, pivots and fill).  Each later step solves its own S by
conjugate gradients preconditioned with that factorization, a
lagged-Jacobian preconditioner: the matrices of consecutive steps differ
only in the weights.  If CG does not reach the relative residual
``_CG_RTOL`` within ``_CG_MAXITER`` iterations, the current S is factored
and solved directly, and that factorization preconditions the steps after
it.  -C is built once per n and cached: the residual applies it, and the
free-set solves of the obstacle solver take its blocks
(:func:`_curvature_block`).  The CG loop, :func:`conjugate_gradients`, is
shared with the obstacle solver's free-set solves, each of which runs it
once, on the free-set block or on the contact-boundary system; its dot
products avoid BLAS, so a solve gives the same bits at any BLAS thread
count.
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
from .torus import _colour_split, _stencil_block, laplacian_matrix, neighbor_table

_EXP_CAP = 500.0  # cap on exponents; keeps overflow out of the line search
_CG_RTOL = 1e-12  # relative residual of each preconditioned CG solve
_CG_MAXITER = 50  # CG iterations before the step refactors and solves directly

__all__ = ["SolverReport", "collect_reports", "conjugate_gradients", "newton_semilinear"]


def _dot(a, b):
    # einsum, not BLAS: no worker threads, and the same sum at any thread count
    return float(np.einsum("i,i->", a, b))


def conjugate_gradients(matvec, b, precondition, stop, maxiter):
    """Preconditioned conjugate gradients for a symmetric positive definite system.

    Starts from 0 and stops once the residual norm is at most ``stop``,
    before the first iteration if |b| already passes.  ``matvec`` applies
    the operator and ``precondition`` the preconditioner's inverse, or None
    for plain CG, which takes r.r of the stopping test as r.z and copies no
    residual.  Returns ``(x, iterations, converged)``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    rr = _dot(r, r)
    if np.sqrt(rr) <= stop:
        return x, 0, True
    p = r.copy() if precondition is None else precondition(r)
    rz = rr if precondition is None else _dot(r, p)
    for it in range(1, maxiter + 1):
        q = matvec(p)
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rr = _dot(r, r)
        if np.sqrt(rr) <= stop:
            return x, it, True
        z = r if precondition is None else precondition(r)
        rz, rz_old = (rr if precondition is None else _dot(r, z)), rz
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
    ``cg_iterations`` the CG iterations of its active-set steps, one system
    per free-set solve: the contact-boundary system of a large free set (kb
    unknowns), or the free-set block of a small one or of one whose
    boundary CG missed its cap (that miss's iterations included), and
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
def _curvature_operator(n):
    """The negated curvature matrix -C = -laplacian_matrix(n) / (2 pi) of an n x n grid.

    In CSR with sorted indices.  The Newton residual and every free-set
    solve at size n share it, so its arrays are read-only.
    """
    neg = -(laplacian_matrix(n) / (2.0 * np.pi)).tocsr()
    for arr in (neg.data, neg.indices, neg.indptr):
        arr.flags.writeable = False
    return neg


def _curvature_block(n, sites):
    """The block of -C on the sorted flat ``sites``, renumbered by position there, in CSR.

    Built by :func:`~maenv.torus._stencil_block` from the rows of the
    cached -C, whose five sorted entries a row it keeps in order: it equals
    ``neg[sites][:, sites]`` array for array.
    """
    neg = _curvature_operator(n)
    return _stencil_block(neg.indices.reshape(-1, 5), neg.data.reshape(-1, 5), sites, sites)


# slots 1-8 of a row of S, after the diagonal: the two-hop steps from a
# black site through a red neighbour to a black site, as pairs of
# neighbor_table columns (i-1, i+1, j-1, j+1), the four straight steps of
# length two, then the four diagonal ones, each of which two red sites
# reach; _RedBlack.matrix writes the values in this order
_TWO_HOPS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3))


@dataclass(frozen=True)
class _RedBlack:
    """The red-black reduction of diag(w) - C on a set of unknowns.

    The five-point stencil couples only sites of opposite colour, so with
    D = w + 4c on the diagonal, c = 1 / (2 pi h^2) the weight of a
    neighbour in -C and G the unit black <- red gather, the red unknowns
    drop out exactly:

        S x_b = g_b + c G (g_r / D_r),    x_r = (g_r + c G^T x_b) / D_r,

    with S = D_b - c^2 G D_r^-1 G^T on the black unknowns, a nine-point
    matrix, symmetric positive definite whenever diag(w) - C is.  ``red``
    and ``black`` are the positions of each colour among the unknowns,
    ``gather`` is G and ``scatter`` G^T (unit CSR, columns numbered by
    position within the other colour).  Row k of ``pairs`` (4, nb) holds,
    for every black site, the red position of its neighbour k (i-1, i+1,
    j-1, j+1), or nr where that neighbour is no unknown.  S's row b holds
    D_b - sum_k q_k at b, -q_k at the black site two steps along k and
    -(q_k + q_l) at the diagonal site reached along k and l, where q_k is
    c^2 / D_r at red neighbour k, 0 if absent; an entry that no red unknown
    reaches is left out.  Those nine values of every row form a table
    (9, nb), and ``entries`` lists the positions in it of S's CSR data, row
    by row with sorted columns, which ``indices`` and ``indptr`` hold
    (int32).
    """

    c: float
    red: np.ndarray
    black: np.ndarray
    gather: sp.csr_matrix
    scatter: sp.csr_matrix
    pairs: np.ndarray
    entries: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def build(cls, n, sites=None):
        """The reduction on the sorted flat ``sites``, or on the whole grid for None.

        The whole grid takes its colours and both gathers from
        :func:`~maenv.torus._colour_split`; a set of sites takes its
        gathers from :func:`~maenv.torus._stencil_block` of the same
        :func:`~maenv.torus.neighbor_table`.
        """
        table = neighbor_table(n)
        if sites is None:
            (red, black), (scatter, gather) = _colour_split(n)
            red_sites, black_sites = red, black
        else:
            odd = sites // n % 2 != sites % 2
            red, black = np.flatnonzero(~odd), np.flatnonzero(odd)
            red_sites, black_sites = sites[red], sites[black]
            ones = np.broadcast_to(1.0, table.shape)
            gather = _stencil_block(table, ones, black_sites, red_sites)
            scatter = _stencil_block(table, ones, red_sites, black_sites)
        nr, nb = red.size, black.size
        position = np.full(n * n, -1, dtype=np.int32)
        position[red_sites] = np.arange(nr, dtype=np.int32)
        first = table.take(black_sites, axis=0)
        pairs = position.take(first)
        reached = pairs >= 0
        pairs[~reached] = nr
        position[:] = -1
        position[black_sites] = np.arange(nb, dtype=np.int32)
        cols = np.empty((nb, 9), dtype=np.int32)
        keep = np.ones((nb, 9), dtype=bool)
        cols[:, 0] = np.arange(nb, dtype=np.int32)
        for slot, (k, l) in enumerate(_TWO_HOPS, start=1):
            cols[:, slot] = position.take(table[first[:, k], l])
            keep[:, slot] = (cols[:, slot] >= 0) & (reached[:, k] | reached[:, l])
        # each row's kept columns in ascending order, the others after them
        cols[~keep] = nb
        slots = np.argsort(cols, axis=1, kind="stable")
        cols = np.take_along_axis(cols, slots, axis=1)
        kept = cols < nb
        entries = (slots * nb + np.arange(nb)[:, None])[kept].astype(np.int32)
        indptr = np.zeros(nb + 1, dtype=np.int32)
        np.cumsum(kept.sum(axis=1), out=indptr[1:])
        c = 1.0 / (1.0 / n) ** 2 / (2.0 * np.pi)
        return cls(c, red, black, gather, scatter, np.ascontiguousarray(pairs.T), entries, cols[kept], indptr)

    def matrix(self, d):
        """S in CSR for the diagonal ``d`` = w + 4c of diag(w) - C on the unknowns."""
        nb = self.black.size
        q = np.zeros(self.red.size + 1)
        np.divide(self.c * self.c, d[self.red], out=q[:-1])
        qs = q.take(self.pairs)
        rows = np.empty((9, nb))
        np.add(qs[0], qs[1], out=rows[0])
        rows[0] += qs[2]
        rows[0] += qs[3]
        np.subtract(d[self.black], rows[0], out=rows[0])
        np.negative(qs, out=rows[1:5])
        np.add(qs[:2, None], qs[None, 2:], out=rows[5:].reshape(2, 2, nb))
        np.negative(rows[5:], out=rows[5:])
        data = rows.ravel().take(self.entries)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(nb, nb))


@lru_cache(maxsize=None)
def _grid_red_black(n):
    """:class:`_RedBlack` of the whole n x n grid, cached per n with read-only arrays."""
    rb = _RedBlack.build(n)
    for arr in (rb.pairs, rb.entries, rb.indices, rb.indptr):
        arr.flags.writeable = False
    return rb


class _LaggedLU:
    """Solves with diag(w) - C for a sequence of weights w, reusing one LU.

    C is the curvature matrix of an n x n grid, restricted to the sites
    ``idx`` when given (once per call).  Every solve eliminates the red
    unknowns (:class:`_RedBlack`, cached per n for the whole grid) and
    solves the reduced matrix S of the black ones, whose data each step
    writes into the reduction's pattern; one gather then gives the red
    half.  The first solve factors its S; later ones run CG on their S
    preconditioned with that factorization and refactor only when CG
    misses ``_CG_RTOL`` within ``_CG_MAXITER`` iterations.  The residual
    of the reduced system is that of the full one, since the back
    substitution solves the red rows exactly, so CG stops at ``_CG_RTOL``
    times the norm of the full right-hand side.
    """

    def __init__(self, n, idx=None):
        self.rb = _grid_red_black(n) if idx is None else _RedBlack.build(n, idx)
        self.lu = None
        self.factorizations = 0
        self.cg_iterations = 0

    def solve(self, w, g):
        rb = self.rb
        d = w + 4.0 * rb.c
        dr, gr = d[rb.red], g[rb.red]
        s = rb.matrix(d)
        b = g[rb.black] + rb.c * rb.gather.dot(gr / dr)
        converged = False
        if self.lu is not None:
            stop = _CG_RTOL * np.sqrt(_dot(g, g))
            xb, its, converged = conjugate_gradients(s.dot, b, self.lu.solve, stop, _CG_MAXITER)
            self.cg_iterations += its
        if not converged:
            # S is symmetric, so S.T, the CSC view of its arrays, is S;
            # minimum degree on A^T + A suits the symmetric pattern (about
            # half the fill of the default column ordering).  relax=1 turns
            # off SuperLU's relaxed supernodes (default 10) and
            # panel_size=10 halves the default panel of 20 columns: on the
            # five-point pattern the merged dense blocks cost more than
            # they save, and they do on S's nine-point pattern too.
            self.lu = spla.splu(s.T, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=10)
            self.factorizations += 1
            xb = self.lu.solve(b)
        x = np.empty_like(g)
        x[rb.black] = xb
        x[rb.red] = (gr + rb.c * rb.scatter.dot(xb)) / dr
        return x


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
    neg = _curvature_operator(n)
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
