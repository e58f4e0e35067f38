"""Envelope solvers on the torus: projected SOR and exponential penalization.

Two independent routes to the same envelope:

* :func:`psor_envelope` solves the discrete linear complementarity problem

      u <= h,   theta + curvature(u) >= 0,   (h - u) * (theta + curvature(u)) = 0

  by red-black projected successive over-relaxation.  The problem's matrix
  is an M-matrix, so its solution does not depend on the start: it is the
  largest theta-psh field below the obstacle h (constraints optionally
  imposed only on a mask, which yields the envelope relative to a measure
  that vanishes elsewhere).  The sweeps start from the same problem on the
  half grid, solved the same way and prolonged bilinearly, then smoothed
  by Gauss-Seidel sweeps before the optimal relaxation factor takes over;
  where the half grid cannot help, they start from the constant min(h).
  The sweep stores each colour's sites as one contiguous vector and
  gathers a colour's neighbour sums from the other colour by one sparse
  product.  Once the natural residual is below ``_HANDOVER_TOL`` the
  sweeps stop and primal-dual active-set steps (Hintermueller, Ito &
  Kunisch, SIAM J. Optim. 13, 2003) finish the solve: each fixes u = h on
  a contact set and solves the equation on the free sites by conjugate
  gradients, preconditioned by an FFT division by the stencil's Fourier
  symbol when the free set is large.  If no step certifies the tolerance,
  the sweeps resume.

* :func:`penalized_step` solves the smooth penalized equation

      theta + curvature(phi) = exp(j * (phi - v)) * mu

  by damped Newton; :func:`penalized_envelope` runs a geometric schedule in
  the penalty strength j.  As j grows the iterates descend to the envelope
  of v relative to mu, with the classical lower bound

      phi_j >= (1 - 1/j) * P(v) + phi_fixed / j + (-log j + inf v) / j

  where phi_fixed solves theta + curvature(phi) = exp(phi) * mu.  The
  distance to the envelope is nearly linear in s = 1/j, so from the third
  strength on each Newton solve starts from the secant through the last two
  iterates in s; on the doubling schedule that takes a third fewer Newton
  steps than a plain warm start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ._newton import SolverReport, _curvature_operators, conjugate_gradients, newton_semilinear
from .errors import EmptySupport, NonConvergence
from .torus import (
    GridField,
    MeasureDensity,
    ThetaDensity,
    curvature_values,
    ma_density,
    neighbor_sum,
    neighbor_table,
)

_HANDOVER_TOL = 1e-2  # PSOR residual at which the active-set steps take over
_ACTIVE_SET_STEPS = 8  # active-set steps before PSOR resumes
_CG_RTOL = 1e-13  # relative residual of each free-set CG solve
_CG_MAXITER = 500  # CG iterations per free-set solve
# Free-site share from which CG is FFT-preconditioned.  Below it the FFT
# preconditioner saves few CG iterations in total, and each application
# transforms the whole grid.  On all PSOR solves of one pass of the
# obstacle-lcp and small-mixed benchmark workloads (2-vCPU VM, one BLAS
# thread) the solve time totals 0.21 s at 0.25, 0.32 s at 0.1 and 0.37 s at 0.
_FFT_MIN_FREE = 0.25
_COARSE_MIN_N = 32  # smallest grid whose sweeps start from the half grid
_COARSE_BUDGET = 4  # sweeps per grid line allowed on each coarse level

__all__ = [
    "ObstacleSolution",
    "PenalizationSchedule",
    "PenalizedEnvelope",
    "SolverReport",
    "psor_envelope",
    "envelope_mu",
    "penalized_step",
    "penalized_envelope",
    "lower_bound_slack",
    "orthogonality_defect",
]


@dataclass
class ObstacleSolution:
    """Envelope below an obstacle: field, contact set and complementarity data.

    ``contact_mask`` flags the constrained sites where u equals the obstacle
    exactly.  Every solver route writes the obstacle's value there bit for
    bit: the projection takes min(u, h), and an active-set step sets u = h on
    its contact set and moves only the free sites.
    """

    u: GridField
    contact_mask: np.ndarray
    complementarity_defect: float
    report: SolverReport


def _natural_residual(u, hproj, theta, h):
    w = curvature_values(u, h)
    w += theta
    gap = hproj - u
    np.minimum(gap, w, out=gap)
    np.abs(gap, out=gap)
    return float(gap.max())


@lru_cache(maxsize=None)
def _colour_split(n):
    """Red-black split of an n x n grid and the sparse gathers between colours.

    ``order[c]`` holds the flat indices of the sites (i, j) with i + j = c
    (mod 2) in row-major order, so ``values.ravel()[order]`` stores a grid
    as two colour vectors.  Row r of gather c sums, with unit weights and in
    the order i-1, i+1, j-1, j+1, the four neighbours of colour c's r-th
    site, which all have the other colour.  Every PSOR call at size n shares
    the cached split, so its arrays are read-only.
    """
    odd = np.arange(n) % 2 == 1
    colour = odd[:, None] ^ odd
    order = np.stack([np.flatnonzero(colour == c) for c in (0, 1)])
    rows = order.shape[1]
    position = np.empty(n * n, dtype=np.int32)
    position[order] = np.arange(rows, dtype=np.int32)
    table = neighbor_table(n)
    data = np.ones(4 * rows)
    indptr = np.arange(0, 4 * rows + 1, 4, dtype=np.int32)
    gathers = []
    for c in (0, 1):
        idx = position.take(table.take(order[c], axis=0))
        gathers.append(sp.csr_matrix((data, idx.ravel(), indptr), shape=(rows, rows)))
    for arr in (order, *(a for g in gathers for a in (g.data, g.indices, g.indptr))):
        arr.flags.writeable = False
    return order, tuple(gathers)


def _psor_values(theta, hproj, tol, max_iter, init, smooth=False):
    """Red-black projected SOR on the iterate stored as two colour vectors.

    Each colour's n^2/2 sites form one contiguous vector, and a half-sweep
    gathers a colour's neighbour sums from the other colour's vector by one
    sparse product, then relaxes the colour in place.  A colour's neighbours
    all have the other colour, so this is the same Jacobi step per colour as
    relaxing the whole grid and keeping that colour; the sparse product adds
    each row's entries from 0.0 in the order i-1, i+1, j-1, j+1, so every
    floating-point operation happens in the same order as in the whole-grid
    sweep.  The relaxation factor is the optimal one for the periodic
    Laplacian, 2 / (1 + sin(pi h)); with ``smooth`` the sweeps before the
    first residual check run at 1 (projected Gauss-Seidel) instead.  The
    start ``init`` is clamped by min(init, hproj).
    """
    n = theta.shape[0]
    h = 1.0 / n
    omega_opt = 2.0 / (1.0 + np.sin(np.pi * h))

    order, nbr = _colour_split(n)
    x = init.ravel()[order]
    ct = theta.ravel()[order]
    hp = hproj.ravel()[order]
    ct *= 2.0 * np.pi * h * h
    np.minimum(x, hp, out=x)
    u = np.empty((n, n))

    def residual():
        u.ravel()[order] = x
        return _natural_residual(u, hproj, theta, h)

    history = []
    sweeps = 0
    check_every = 8
    while sweeps < max_iter:
        omega = 1.0 if smooth and sweeps < check_every else omega_opt
        for c in (0, 1):
            s = nbr[c] @ x[1 - c]
            s += ct[c]
            s *= 0.25
            s -= x[c]
            s *= omega
            s += x[c]
            np.minimum(s, hp[c], out=x[c])
        sweeps += 1
        if sweeps % check_every == 0 or sweeps == max_iter:
            res = residual()
            history.append(res)
            if res <= tol:
                return u, sweeps, res, history, True
    res = residual()
    history.append(res)
    return u, sweeps, res, history, False


def _prolong(uc):
    """Periodic bilinear interpolation onto the doubled grid."""
    n = uc.shape[0]
    uf = np.empty((2 * n, 2 * n))
    right = np.roll(uc, -1, axis=0)
    down = np.roll(uc, -1, axis=1)
    uf[0::2, 0::2] = uc
    uf[1::2, 0::2] = 0.5 * (uc + right)
    uf[0::2, 1::2] = 0.5 * (uc + down)
    uf[1::2, 1::2] = 0.25 * (uc + right + down + np.roll(right, -1, axis=1))
    return uf


def _nested_sweeps(theta, hproj, mask, tol, max_iter):
    """Sweeps to the residual tol, started from the solution on the n/2 grid.

    Nested iteration (Brandt & Cryer, SIAM J. Sci. Stat. Comput. 4, 1983):
    theta, the obstacle and the mask are injected onto the even
    sub-lattice, that problem is swept to tol the same way (recursively),
    and its solution is prolonged bilinearly.  The sweeps before the first
    residual check then run at omega = 1: Gauss-Seidel damps the
    interpolation error within a few sweeps, where the optimal factor takes
    as many sweeps as from a constant start.  The coarse grid is used when n
    is even and at least ``_COARSE_MIN_N``, the sub-lattice holds a
    constrained site and the injected theta has positive mass; a coarse
    level that misses its budget of ``_COARSE_BUDGET`` sweeps per grid line
    is dropped.  Otherwise the sweeps start from the constant min(h).
    Returns what :func:`_psor_values` returns, then the sweeps spent on all
    coarse levels.
    """
    n = theta.shape[0]
    thc, hc, mc = theta[::2, ::2], hproj[::2, ::2], mask[::2, ::2]
    start, spent = None, 0
    if n % 2 == 0 and n >= _COARSE_MIN_N and mc.any() and thc.sum() > 0.0:
        uc, sweeps, _, _, ok, spent = _nested_sweeps(thc, hc, mc, tol, _COARSE_BUDGET * (n // 2))
        spent += sweeps
        if ok:
            start = _prolong(uc)
    smooth = start is not None
    if not smooth:
        start = np.broadcast_to(float(hproj[mask].min()), hproj.shape)
    return (*_psor_values(theta, hproj, tol, max_iter, start, smooth), spent)


@lru_cache(maxsize=None)
def _inverse_symbol(n):
    """Reciprocal Fourier symbol of -curvature on the rfft2 modes of an n x n grid.

    The eigenvalue of mode (k, l) is (4 - 2 cos(2 pi k/n) - 2 cos(2 pi l/n))
    / (2 pi h^2).  The constant mode's zero is replaced by the first nonzero
    eigenvalue, which keeps the preconditioner positive definite.  The table
    is cached per n and read-only.
    """
    h = 1.0 / n
    d = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    lam = (d[:, None] + d[None, : n // 2 + 1]) / (2.0 * np.pi * h * h)
    lam[0, 0] = lam[1, 0]
    inv = 1.0 / lam
    inv.flags.writeable = False
    return inv


def _free_set_solve(u, theta, h, free):
    """Solve theta + curvature(u) = 0 on the free sites, u fixed elsewhere.

    Conjugate gradients on the free sites' correction, with the free-set
    block of the cached -C of :func:`_curvature_operators` as the operator.
    When the free set holds at least ``_FFT_MIN_FREE`` of the sites, CG is
    preconditioned by the periodic inverse of -curvature (an FFT division)
    restricted to the free set; on a smaller free set, thin strips between
    contact regions, the Dirichlet data already bound the condition number
    and plain CG needs fewer operations.  ``free`` flags the free sites of
    the flattened grid.  Returns the new field and the number of CG
    iterations.
    """
    n = u.shape[0]
    idx = np.flatnonzero(free)
    op = _curvature_operators(n)[0][idx][:, idx]
    r = curvature_values(u, h)
    r += theta
    r = r.ravel()[idx]
    if idx.size >= _FFT_MIN_FREE * n * n:
        inv = _inverse_symbol(n)
        grid = np.zeros(n * n)

        def precondition(r):
            grid[idx] = r
            z = np.fft.irfft2(np.fft.rfft2(grid.reshape(n, n)) * inv, s=(n, n))
            return z.ravel()[idx]

    else:
        precondition = np.copy
    e, its, _ = conjugate_gradients(op.dot, r, precondition, _CG_RTOL, _CG_MAXITER)
    out = u.copy()
    out.ravel()[idx] += e
    return out, its


def _active_set_finish(u, theta, hproj, mask, tol, history):
    """Primal-dual active-set steps from the iterate u; stops when one certifies tol.

    Each step takes as contact set the constrained sites where a Jacobi step
    would reach the obstacle, c * (h - u) <= theta + curvature(u) with c the
    stencil's diagonal 4 / (2 pi h^2), fixes u = h there and solves the
    equation on the rest.  Appends each step's natural residual to
    ``history``.  Returns the last iterate, its residual, whether it
    certifies tol, and the CG iterations spent.
    """
    n = u.shape[0]
    h = 1.0 / n
    c = 4.0 / (2.0 * np.pi * h * h)
    cg_iterations = 0
    res = np.inf
    for _ in range(_ACTIVE_SET_STEPS):
        w = curvature_values(u, h)
        w += theta
        contact = mask & (c * (hproj - u) <= w)
        if not contact.any():
            break
        u = np.where(contact, hproj, u)
        u, its = _free_set_solve(u, theta, h, ~contact.ravel())
        cg_iterations += its
        res = _natural_residual(u, hproj, theta, h)
        history.append(res)
        if res <= tol:
            return u, res, True, cg_iterations
    return u, res, False, cg_iterations


def psor_envelope(
    theta: ThetaDensity,
    obstacle: GridField,
    tol: float = 1e-9,
    max_iter: int = 200_000,
    constraint_mask: np.ndarray | None = None,
) -> ObstacleSolution:
    """Largest theta-psh field below the obstacle (projected SOR, active-set finish).

    The termination criterion is the sup norm of the natural residual
    ``min(obstacle - u, ma_density(theta, u))``, which controls feasibility,
    positivity and complementarity at once.  When ``constraint_mask`` is
    given, the obstacle is enforced only on masked nodes (envelope relative
    to a measure supported there); elsewhere the equation ma = 0 holds.

    PSOR sweeps until the residual is at most ``max(tol, _HANDOVER_TOL)``,
    starting from the half-grid solution where :func:`_nested_sweeps` can
    use one (Gauss-Seidel for the first sweeps) and from the constant
    min(h) otherwise; then at most ``_ACTIVE_SET_STEPS`` active-set steps
    try to certify tol.  If none does, PSOR continues from the last iterate
    within what is left of ``max_iter`` sweeps.  The report's
    ``iterations`` counts the sweeps on this grid, ``coarse_sweeps`` those
    on the coarse levels, which have their own budget and add no report,
    and ``cg_iterations`` the free-set CG iterations.

    Raises :class:`NonConvergence` (carrying the best iterate) if the sweep
    budget is exhausted.
    """
    grid = theta.grid
    if obstacle.grid.n != grid.n:
        raise ValueError("obstacle and theta grids differ")
    th = theta.density.values
    hproj = obstacle.values
    if constraint_mask is not None:
        mask = np.asarray(constraint_mask, dtype=bool)
        if mask.shape != hproj.shape:
            raise ValueError("constraint mask shape mismatch")
        if not mask.any():
            raise EmptySupport("constraint mask is empty")
        hproj = np.where(mask, hproj, np.inf)
    else:
        mask = np.ones_like(hproj, dtype=bool)

    handover = max(tol, _HANDOVER_TOL)
    u, sweeps, res, history, ok, coarse_sweeps = _nested_sweeps(th, hproj, mask, handover, max_iter)
    cg_iterations = 0
    if ok and res > tol:
        u, res, ok, cg_iterations = _active_set_finish(u, th, hproj, mask, tol, history)
        if not ok:
            u, more, res, rest, ok = _psor_values(th, hproj, tol, max_iter - sweeps, u)
            sweeps += more
            history += rest
    report = SolverReport(
        "psor", sweeps, res, ok, history, cg_iterations=cg_iterations, coarse_sweeps=coarse_sweeps
    )
    w = th + curvature_values(u, grid.h)
    gap = np.where(mask, obstacle.values - u, 0.0)
    defect = float((gap * w).sum()) * grid.h**2
    solution = ObstacleSolution(GridField(grid, u), mask & (u == obstacle.values), defect, report)
    if not ok:
        raise NonConvergence(
            f"projected SOR stalled at residual {res:.3e} after {sweeps} sweeps",
            best=solution,
            residual=res,
            iterations=sweeps,
        )
    return solution


def envelope_mu(
    theta: ThetaDensity,
    v: GridField,
    mu: MeasureDensity,
    tol: float = 1e-9,
) -> ObstacleSolution:
    """Envelope of v with the constraint u <= v imposed only on supp(mu)."""
    return psor_envelope(theta, v, tol=tol, constraint_mask=mu.support_mask)


# ---------------------------------------------------------------------------
# exponential penalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenalizationSchedule:
    """Increasing penalty strengths; default doubles from 1 to 2**14."""

    js: tuple = tuple(float(2**k) for k in range(15))

    def __post_init__(self):
        js = tuple(float(j) for j in self.js)
        if not js or any(j <= 0 for j in js):
            raise ValueError("penalty strengths must be positive")
        if any(b <= a for a, b in zip(js, js[1:])):
            raise ValueError("penalty strengths must increase strictly")
        object.__setattr__(self, "js", js)


def penalized_step(
    theta: ThetaDensity,
    v: GridField,
    mu: MeasureDensity,
    j: float,
    init: GridField | None = None,
    tol: float = 1e-10,
):
    """Solve theta + curvature(phi) = exp(j*(phi - v)) * mu by damped Newton.

    The default initial guess is min(v, 0) smoothed by one Jacobi sweep, a
    subsolution-side start that keeps Newton in the monotone basin.  Returns
    ``(GridField, SolverReport)``.
    """
    if j <= 0:
        raise ValueError("penalty strength must be positive")
    grid = theta.grid
    th = theta.density.values
    if init is None:
        u0 = np.minimum(v.values, 0.0)
        u0 = 0.25 * (neighbor_sum(u0) + 2.0 * np.pi * grid.h**2 * th)
    else:
        u0 = init.values
    phi, report = newton_semilinear(
        th, [(float(j), v.values, mu.density.values)], u0, tol=tol
    )
    return GridField(grid, phi), report


@dataclass
class PenalizedEnvelope:
    """Iterates and diagnostics of the penalization schedule."""

    js: tuple
    iterates: list
    sup_dists: list
    l1_dists: list
    slacks: list
    reports: list
    oracle: ObstacleSolution


def penalized_envelope(
    theta: ThetaDensity,
    v: GridField,
    mu: MeasureDensity,
    schedule: PenalizationSchedule | None = None,
    newton_tol: float = 1e-10,
    psor_tol: float = 1e-10,
) -> PenalizedEnvelope:
    """Penalization schedule with predicted starts and per-step diagnostics.

    The first strength starts from :func:`penalized_step`'s default guess and
    the second from the first iterate.  From the third on, the start is the
    secant predictor in s = 1/j through the last two iterates,

        phi_k + (phi_k - phi_{k-1}) * (1/j_{k+1} - 1/j_k) / (1/j_k - 1/j_{k-1}),

    which is phi_k + (phi_k - phi_{k-1}) / 2 on the doubling schedule.  Newton
    solves to the same tolerance from any start, so the iterates are those
    of a plain warm start up to that tolerance.

    Each step reports the sup/L1 distance to the obstacle-problem oracle
    (:func:`envelope_mu`, computed once) and the minimum slack of the lower
    bound, whose fixed field solves theta + curvature(phi) = exp(phi)*mu.
    """
    from .equations import solve_ma_exponential  # local import, no cycle at call time

    schedule = schedule or PenalizationSchedule()
    oracle = envelope_mu(theta, v, mu, tol=psor_tol)
    phi_fixed, _ = solve_ma_exponential(theta, mu, beta=1.0, tol=newton_tol)
    inf_v = float(v.values.min())

    iterates, sups, l1s, slacks, reports = [], [], [], [], []
    h2 = theta.grid.h**2
    js = schedule.js
    for k, j in enumerate(js):
        start = iterates[-1] if iterates else None
        if k >= 2:
            # secant in s = 1/j through the last two iterates
            a, b = iterates[-2].values, iterates[-1].values
            ratio = (1.0 / j - 1.0 / js[k - 1]) / (1.0 / js[k - 1] - 1.0 / js[k - 2])
            start = GridField(theta.grid, b + (b - a) * ratio)
        current, rep = penalized_step(theta, v, mu, j, init=start, tol=newton_tol)
        iterates.append(current)
        d = current.values - oracle.u.values
        sups.append(float(np.abs(d).max()))
        l1s.append(float(np.abs(d).sum() * h2))
        slacks.append(lower_bound_slack(current, oracle.u, phi_fixed, j, inf_v))
        reports.append(rep)
    return PenalizedEnvelope(schedule.js, iterates, sups, l1s, slacks, reports, oracle)


def lower_bound_slack(
    phi_j: GridField, env: GridField, phi_fixed: GridField, j: float, inf_v: float
) -> float:
    """Minimum over the grid of phi_j minus its theoretical lower bound.

    The bound is (1 - 1/j) * env + phi_fixed / j + (-log j + inf_v) / j (one
    complex dimension).  Nonnegative up to solver tolerances.
    """
    bound = (
        (1.0 - 1.0 / j) * env.values
        + phi_fixed.values / j
        + (-np.log(j) + inf_v) / j
    )
    return float((phi_j.values - bound).min())


def orthogonality_defect(theta: ThetaDensity, h: GridField, env: GridField) -> float:
    """integrate((h - env) * ma_density(theta, env)).

    Vanishes (to solver tolerance) when env is the envelope of an obstacle
    continuous at grid scale; strictly positive defects appear for two-valued
    steps, where the envelope's measure charges the jump ring.  ``h`` should
    carry the plain function values; the envelope may have been computed from
    a lower-semicontinuous sampling of the same obstacle.
    """
    gap = h.values - env.values
    return float((gap * ma_density(theta, env).values).sum()) * theta.grid.h**2
