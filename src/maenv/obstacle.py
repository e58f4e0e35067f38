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
  An obstacle imposed everywhere that is already theta-psh to the
  tolerance is its own envelope and takes no sweep.
  :func:`psor_envelopes` sweeps several obstacles on one grid as one
  stack: the sweep stores each colour of every stacked problem as a column
  of one array, so one sparse product gathers the neighbour sums of all of
  them, and a problem leaves the stack at the first residual check it
  passes.  Once the natural residual is below ``_HANDOVER_TOL`` the
  sweeps stop and primal-dual active-set steps (Hintermueller, Ito &
  Kunisch, SIAM J. Optim. 13, 2003) finish the solve: each fixes u = h on
  a contact set and solves the equation on the free sites by one
  conjugate-gradient solve.  A large free set is solved through its
  contact boundary alone: point sources there through the periodic
  Green's function (the capacitance-matrix method), a system of the
  boundary's size; a small one by CG on the free-set block.  If no step
  certifies the tolerance, the sweeps resume.  The active-set steps and
  resumed sweeps take one problem at a time.

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

from ._newton import SolverReport, _curvature_block, _dot, conjugate_gradients, newton_semilinear
from .errors import EmptySupport, NonConvergence
from .torus import (
    GridField,
    MeasureDensity,
    ThetaDensity,
    _colour_split,
    curvature_values,
    ma_density,
    neighbor_sum,
)

_PSOR_TOL = 1e-9  # natural residual every envelope is solved to
_HANDOVER_TOL = 1e-2  # PSOR residual at which the active-set steps take over
_ACTIVE_SET_STEPS = 8  # active-set steps before PSOR resumes
_CG_RTOL = 1e-13  # relative residual of each free-set CG solve
_CG_MAXITER = 500  # CG iterations per free-set solve
# Free-site share from which a free set is solved by its contact-boundary
# system.  Below it, on the thin strips between min-principle's crossing
# pairs, the boundary is as large as the free set: at n = 64 (free share
# 0.08-0.10, kb 568-677) the boundary route took 14-23 ms a solve against
# 0.9-1.3 ms for plain CG from zero (2-vCPU VM, one BLAS thread).
_BOUNDARY_MIN_FREE = 0.25
_COARSE_MIN_N = 32  # smallest grid whose sweeps start from the half grid
_COARSE_BUDGET = 4  # sweeps per grid line allowed on each coarse level

__all__ = [
    "ObstacleSolution",
    "PenalizationSchedule",
    "PenalizedEnvelope",
    "SolverReport",
    "psor_envelope",
    "psor_envelopes",
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
    """Sup norm of min(hproj - u, theta + curvature(u)) over the grid axes.

    A float for one grid (n, n); for a stack (n, n, k), the list of the k
    problems' norms, each the max of a row of a contiguous (k, n^2) copy: a
    max over axes 0 and 1 of the stack runs numpy's inner loop k sites long.
    """
    w = curvature_values(u, h)
    w += theta
    gap = hproj - u
    np.minimum(gap, w, out=gap)
    np.abs(gap, out=gap)
    if gap.ndim == 2:
        return float(gap.max())
    return np.ascontiguousarray(gap.reshape(-1, gap.shape[2]).T).max(axis=1).tolist()


def _psor_values(theta, hproj, tol, max_iter, init, smooth=False):
    """Red-black projected SOR on a stack of problems stored as colour columns.

    ``hproj`` is one obstacle (n, n) or a stack (n, n, k) of obstacles that
    share ``theta``; ``init``, a start field shaped like ``hproj`` or one
    constant per problem, is clamped by min(init, hproj).  The iterate is
    stored as an array (2, n^2/2, k): each colour's sites in row-major
    order, one column per problem.  A half-sweep gathers a colour's
    neighbour sums from the other colour for every problem by one sparse
    product with the k columns, then relaxes the colour in place.  A
    colour's neighbours all have the other colour, so this is the same
    Jacobi step per colour as relaxing the whole grid and keeping that
    colour; the sparse product adds each row's entries from 0.0 in the
    order i-1, i+1, j-1, j+1 in every column, and the rest is elementwise,
    so every floating-point operation happens in the same order as in the
    whole-grid sweep of each problem alone.  A stack of
    one is swept as plain vectors.  The relaxation factor is the optimal
    one for the periodic Laplacian, 2 / (1 + sin(pi h)); with ``smooth``
    the sweeps before the first residual check run at 1 (projected
    Gauss-Seidel) instead.  Every 8 sweeps and after the last sweep of
    ``max_iter`` the natural residual is taken on the whole stack, once
    each, and each problem at most ``tol`` leaves it with its field; the
    last check ends the others unconverged (with ``max_iter`` 0 it checks
    the start).  Returns ``(u, sweeps, residual, history, converged)`` for
    one obstacle and the list of these, in stack order, for a stack.
    """
    n = theta.shape[0]
    stack = hproj.reshape(n, n, -1)
    k = stack.shape[2]
    h = 1.0 / n
    omega_opt = 2.0 / (1.0 + np.sin(np.pi * h))

    order, nbr = _colour_split(n)
    hp = stack.reshape(n * n, k).take(order, axis=0)
    x = np.asarray(init, dtype=float)
    if x.ndim >= 2:  # a start field per problem, else a constant per problem
        x = x.reshape(n * n, -1).take(order, axis=0)
    x = np.minimum(x, hp)
    # theta's term in every column: adding an (m, 1) column across k
    # columns runs numpy's inner loop k sites long, four times slower
    ct = np.empty(hp.shape)
    np.multiply(theta.ravel()[order][..., None], 2.0 * np.pi * h * h, out=ct)
    live = list(range(k))
    histories = [[] for _ in live]
    results = [None] * k

    def views():
        # colour columns, obstacles and theta; a stack of one as plain grids
        # and vectors, the fast case of the sparse product and the residual
        if len(live) == 1:
            return x[..., 0], hp[..., 0], ct[..., 0], stack[..., 0], theta
        return x, hp, ct, stack, theta[..., None]

    def residual():
        u = np.empty(hg.shape)
        u.reshape(n * n, *hg.shape[2:])[order] = xs
        res = _natural_residual(u, hg, tg, h)
        res = res if u.ndim == 3 else [res]
        for i, r in zip(live, res):
            histories[i].append(r)
        return u.reshape(n, n, -1), res

    xs, hs, cs, hg, tg = views()
    sweeps = 0
    check_every = 8
    while sweeps < max_iter:
        omega = 1.0 if smooth and sweeps < check_every else omega_opt
        for c in (0, 1):
            s = nbr[c] @ xs[1 - c]
            s += cs[c]
            s *= 0.25
            s -= xs[c]
            s *= omega
            s += xs[c]
            np.minimum(s, hs[c], out=xs[c])
            # one product buffer alive at a time: malloc reuses its pages,
            # where a stack-wide product allocated while the last is alive
            # gets fresh ones, page-faulted in on every half-sweep
            del s
        sweeps += 1
        if sweeps % check_every == 0 or sweeps == max_iter:
            u, res = residual()
            # the budget's last check ends every problem still in the stack
            keep = [r > tol and sweeps < max_iter for r in res]
            if all(keep):
                continue
            for j, i in enumerate(live):
                if not keep[j]:
                    results[i] = (u[..., j].copy(), sweeps, res[j], histories[i], res[j] <= tol)
            if not any(keep):
                break
            live = [i for i, more in zip(live, keep) if more]
            x, hp, ct, stack = (a.compress(keep, axis=-1) for a in (x, hp, ct, stack))
            xs, hs, cs, hg, tg = views()
    else:
        # max_iter == 0, a resumed solve with no sweep left: one check of the start
        u, res = residual()
        for j, i in enumerate(live):
            results[i] = (u[..., j].copy(), sweeps, res[j], histories[i], False)
    return results if hproj.ndim == 3 else results[0]


def _stack(arrays):
    """``np.stack(arrays, axis=-1)``, without its Python work per array."""
    out = np.empty((*arrays[0].shape, len(arrays)), dtype=arrays[0].dtype)
    for i, a in enumerate(arrays):
        out[..., i] = a
    return out


def _prolong(uc):
    """Periodic bilinear interpolation onto the doubled grid (axes 0 and 1)."""
    n = uc.shape[0]
    uf = np.empty((2 * n, 2 * n, *uc.shape[2:]))
    right = np.roll(uc, -1, axis=0)
    down = np.roll(uc, -1, axis=1)
    uf[0::2, 0::2] = uc
    uf[1::2, 0::2] = 0.5 * (uc + right)
    uf[0::2, 1::2] = 0.5 * (uc + down)
    uf[1::2, 1::2] = 0.25 * (uc + right + down + np.roll(right, -1, axis=1))
    return uf


def _nested_sweeps(theta, hproj, tol, max_iter):
    """Sweeps of a stack of problems to the residual tol, started on the n/2 grid.

    ``hproj`` is a stack (n, n, k) of obstacles sharing ``theta``, each +inf
    off its constraint set.  Nested iteration (Brandt & Cryer, SIAM J. Sci.
    Stat. Comput. 4, 1983): theta and the obstacles are injected onto the
    even sub-lattice, those problems are swept to tol as one stack the
    same way (recursively), and each solution is prolonged bilinearly.  The
    sweeps before the first residual check then run at omega = 1:
    Gauss-Seidel damps the interpolation error within a few sweeps, where
    the optimal factor takes as many sweeps as from a constant start.  The
    coarse grid is used when n is a multiple of 4 (so that the n/2 grid
    has a red-black colouring) and at least ``_COARSE_MIN_N`` and the
    injected theta has positive mass, by each problem whose sub-lattice
    holds a constrained (finite) site; a problem whose coarse level misses
    its budget of ``_COARSE_BUDGET`` sweeps per grid line drops it.  The
    problems without a coarse start sweep from their constant min(h), as a
    stack of their own.  Returns, per problem and in stack order, what
    :func:`_psor_values` returns, then the sweeps spent on all its coarse
    levels.
    """
    n, k = hproj.shape[0], hproj.shape[2]
    thc, hc = theta[::2, ::2], hproj[::2, ::2]
    starts, spent = [None] * k, [0] * k
    coarse = np.flatnonzero(np.isfinite(hc).any(axis=(0, 1))) if n % 4 == 0 and n >= _COARSE_MIN_N else ()
    if len(coarse) and thc.sum() > 0.0:
        # the whole stack as views of the fine one, a part of it as a copy
        sub = slice(None) if len(coarse) == k else coarse
        levels = _nested_sweeps(thc, hc[..., sub], tol, _COARSE_BUDGET * (n // 2))
        for i, (uc, sweeps, _, _, ok, deeper) in zip(coarse, levels):
            spent[i] = deeper + sweeps
            if ok:
                starts[i] = uc
    results = [None] * k
    prolonged = [i for i in range(k) if starts[i] is not None]
    constant = [i for i in range(k) if starts[i] is None]
    for group, smooth in ((prolonged, True), (constant, False)):
        if not group:
            continue
        hp = hproj if len(group) == k else hproj[..., group]
        init = _prolong(_stack([starts[i] for i in group])) if smooth else hp.min(axis=(0, 1))
        for i, r in zip(group, _psor_values(theta, hp, tol, max_iter, init, smooth)):
            results[i] = (*r, spent[i])
    return results


@lru_cache(maxsize=None)
def _green(n):
    """Periodic Green's function G of -curvature on an n x n grid: the pseudo-inverse of -C.

    Returns ``(symbol, kernel)``.  ``symbol`` is the reciprocal Fourier
    symbol of -curvature on the rfft2 modes: the eigenvalue of mode (k, l)
    is (4 - 2 cos(2 pi k/n) - 2 cos(2 pi l/n)) / (2 pi h^2), and the
    constant mode's zero gets the entry 0.  ``kernel`` is G's column at site
    0, one inverse FFT of the symbol, laid out by offset:
    ``kernel[di + n - 1, dj + n - 1]`` is its value at (di mod n, dj mod n)
    for -n < di, dj < n, so G[a, b] is the kernel at the offset a - b.  Then
    G (-C) = I - 1/n^2.  Cached per n and read-only.
    """
    h = 1.0 / n
    d = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    lam = (d[:, None] + d[None, : n // 2 + 1]) / (2.0 * np.pi * h * h)
    lam[0, 0] = 1.0
    symbol = 1.0 / lam
    symbol[0, 0] = 0.0
    kernel = np.pad(np.fft.irfft2(symbol, s=(n, n)), ((n - 1, 0), (n - 1, 0)), mode="wrap")
    for arr in (symbol, kernel):
        arr.flags.writeable = False
    return symbol, kernel


def _apply_green(symbol, f):
    """G f, the convolution with :func:`_green`'s symbol, by one FFT pair."""
    return np.fft.irfft2(np.fft.rfft2(f) * symbol, s=f.shape)


def _boundary_solve(r, free):
    """The free-set correction by the contact-boundary (capacitance) system.

    Solves (-C e)_F = r on the free sites F, e = 0 on the contact sites,
    through point sources on the contact boundary B, the contact sites with
    a free neighbour (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8,
    1971; Proskurowski & Widlund, Math. Comp. 30, 1976).  With r extended by
    0 and G the periodic Green's function of -C (:func:`_green`), the field
    e = G(r + sigma) + c satisfies the free-set equation for any sources
    sigma on B with sum(sigma) = -sum(r), and vanishes on B, which holds
    every contact neighbour of F, when

        G_BB sigma + c = -(G r)_B.

    With sigma = sigma_0 + tau, sigma_0 the mean charge, this is CG on the
    mean-zero tau, where G_BB is positive definite.  Its operator is an
    einsum product with the gathered kb x kb block, and its preconditioner
    the sparse product with -C_BB, the B block of -C
    (:func:`_curvature_block`): G_BB acts on the boundary like a
    single-layer potential, whose inverse the local -C_BB approximates (it
    cuts the block's condition number on the mean-zero subspace 2-3 fold,
    68 -> 30 at kb = 284).  Neither calls BLAS, so a solve gives the same
    bits at any thread count.  c is the mean of what is left.

    CG's residual is the value eps of e on B, and the free-set residual it
    leaves is, at each free site, the sum of eps over its contact
    neighbours times their weight 1 / (2 pi h^2).  A site has four
    neighbours: each free site sums at most four entries of eps and each
    entry reaches at most four free sites, so that residual's norm is at
    most 4 |eps| / (2 pi h^2).  CG therefore stops once |eps| is at most
    ``_CG_RTOL`` |r| 2 pi h^2 / 4, which meets the free-set tolerance of
    :func:`_free_set_solve` with no further CG: an absolute stop, which a
    nearly zero projected right-hand side cannot put out of reach.  The
    block takes kb^2 floats, 18.6 MB at kb = 1524 (a smooth obstacle at
    n = 512), where its CG runs 99 iterations.  ``free`` flags the free sites of the n x n grid.  Returns
    ``(e, iterations)`` with e on the free sites, ``(None, 0)`` when B is
    empty, or ``(None, iterations)`` when CG misses ``_CG_MAXITER``.
    """
    n = free.shape[0]
    boundary = np.flatnonzero(~free & neighbor_sum(free))
    kb = boundary.size
    if not kb:
        return None, 0
    symbol, kernel = _green(n)
    # G_BB: the kernel at the offsets between boundary sites, as flat
    # indices into the (2n - 1)-wide kernel, whose offset 0 sits at origin
    bi, bj = np.divmod(boundary, n)
    key = bi * (2 * n - 1) + bj
    origin = (n - 1) * 2 * n
    block = np.empty((kb, kb))
    for i in range(0, kb, 64):
        # 64 rows at a time: a whole kb x kb index array next to the block
        # costs fresh pages twice, 2x the build time at kb = 284
        kernel.take(np.subtract.outer(key[i : i + 64] + origin, key), out=block[i : i + 64])
    neg_bb = _curvature_block(n, boundary)

    def project(v):
        v -= v.sum() / kb
        return v

    def matvec(t):
        return project(np.einsum("ij,j->i", block, t))

    def precondition(t):
        return project(neg_bb.dot(t))

    f = np.zeros((n, n))
    f[free] = r
    sigma0 = -r.sum() / kb
    g = -_apply_green(symbol, f).ravel().take(boundary)
    g -= sigma0 * block.sum(axis=1)
    # 4: the most contact neighbours a free site sums eps over
    stop = _CG_RTOL * 2.0 * np.pi * np.sqrt(_dot(r, r)) / (4 * n * n)
    tau, its, ok = conjugate_gradients(matvec, project(g.copy()), precondition, stop, _CG_MAXITER)
    if not ok:
        return None, its
    c = (g - np.einsum("ij,j->i", block, tau)).sum() / kb
    f.ravel()[boundary] = sigma0 + tau
    return _apply_green(symbol, f)[free] + c, its


def _free_set_solve(u, theta, h, free):
    """Solve theta + curvature(u) = 0 on the free sites, u fixed elsewhere.

    The free sites' correction solves the free-set block of -C to the
    residual ``_CG_RTOL`` |r| by one of two routes.  When the free set
    holds at least ``_BOUNDARY_MIN_FREE`` of the sites, by its
    contact-boundary system alone (:func:`_boundary_solve`), whose stop
    meets that tolerance.  Otherwise, or when that system's CG misses its
    cap, by plain CG from zero on the free-set block
    (:func:`_curvature_block`), built only then: on thin strips between
    contact regions the Dirichlet data already bound the condition number.
    ``free`` flags the free sites of the n x n grid.  Returns the new
    field and the number of CG iterations, a missed boundary system's
    included.
    """
    n = u.shape[0]
    idx = np.flatnonzero(free)
    r = curvature_values(u, h)
    r += theta
    r = r.ravel()[idx]
    e, its = None, 0
    if idx.size >= _BOUNDARY_MIN_FREE * n * n:
        e, its = _boundary_solve(r, free)
    if e is None:
        op = _curvature_block(n, idx)
        e, more, _ = conjugate_gradients(op.dot, r, None, _CG_RTOL * np.sqrt(_dot(r, r)), _CG_MAXITER)
        its += more
    out = u.copy()
    out.ravel()[idx] += e
    return out, its


def _active_set_finish(u, theta, hproj, tol, history):
    """Primal-dual active-set steps from the iterate u; stops when one certifies tol.

    Each step takes as contact set the sites where a Jacobi step would reach
    the obstacle, c * (h - u) <= theta + curvature(u) with c the stencil's
    diagonal 4 / (2 pi h^2), fixes u = h there and solves the equation on
    the rest.  Off the constraint set h = +inf, so no such site is in
    contact.  Appends each step's natural residual to ``history``.  Returns
    the last iterate, its residual, whether it certifies tol, and the CG
    iterations spent.
    """
    n = u.shape[0]
    h = 1.0 / n
    c = 4.0 / (2.0 * np.pi * h * h)
    cg_iterations = 0
    res = np.inf
    for _ in range(_ACTIVE_SET_STEPS):
        w = curvature_values(u, h)
        w += theta
        contact = c * (hproj - u) <= w
        if not contact.any():
            break
        u = np.where(contact, hproj, u)
        u, its = _free_set_solve(u, theta, h, ~contact)
        cg_iterations += its
        res = _natural_residual(u, hproj, theta, h)
        history.append(res)
        if res <= tol:
            return u, res, True, cg_iterations
    return u, res, False, cg_iterations


def psor_envelopes(
    theta: ThetaDensity,
    obstacles: list,
    tol: float = _PSOR_TOL,
    max_iter: int = 200_000,
    constraint_masks: list | None = None,
) -> list[ObstacleSolution]:
    """Largest theta-psh field below each obstacle, the obstacles swept as one stack.

    The termination criterion is the sup norm of the natural residual
    ``min(obstacle - u, ma_density(theta, u))``, which controls feasibility,
    positivity and complementarity at once.  ``constraint_masks`` holds one
    entry per obstacle, None or a mask: the obstacle is then enforced only
    on masked nodes (envelope relative to a measure supported there), and
    elsewhere the equation ma = 0 holds.

    All obstacles live on theta's grid.  An obstacle imposed everywhere
    whose natural residual at u = h is at most tol is its own envelope: it
    returns h at once, with a report of 0 sweeps, 0 coarse sweeps and 0 CG
    iterations whose history is that one residual.  The PSOR sweeps of the
    others run together as one stack (:func:`_nested_sweeps`,
    :func:`_psor_values`) until each residual is at most
    ``max(tol, _HANDOVER_TOL)``, starting from the
    half-grid solution where it can be used (Gauss-Seidel for the first
    sweeps) and from the constant min(h) otherwise; a problem leaves the
    stack at the first residual check it passes, so every problem gets the
    field, sweeps and history it gets swept alone.  Then each problem on
    its own takes at most ``_ACTIVE_SET_STEPS`` active-set steps to certify
    tol and, if none does, resumes PSOR from the last iterate within what
    is left of ``max_iter`` sweeps.  Each report's ``iterations`` counts
    the sweeps on this grid, ``coarse_sweeps`` those on the coarse levels,
    which have their own budget and add no report, and ``cg_iterations``
    the CG iterations of the free-set solves, one system each (a
    boundary system that misses its cap adds its iterations to those of
    the plain CG after it).  The reports are built in input order.

    An empty list of obstacles gives an empty list of solutions.  Raises
    :class:`ValueError` for an obstacle or mask off theta's grid,
    :class:`EmptySupport` for an empty mask, and, once every problem is
    solved, the first failing problem's :class:`NonConvergence` (carrying
    its best iterate) if a sweep budget is exhausted.
    """
    grid = theta.grid
    th = theta.density.values
    masks = [None] * len(obstacles) if constraint_masks is None else list(constraint_masks)
    if len(masks) != len(obstacles):
        raise ValueError("one constraint mask per obstacle")
    hprojs, swept = [], []
    for obstacle, mask in zip(obstacles, masks):
        if obstacle.grid.n != grid.n:
            raise ValueError("obstacle and theta grids differ")
        hproj = obstacle.values
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != hproj.shape:
                raise ValueError("constraint mask shape mismatch")
            if not mask.any():
                raise EmptySupport("constraint mask is empty")
            hproj = np.where(mask, hproj, np.inf)
        hprojs.append(hproj)
        done = None
        if mask is None or mask.all():
            # an obstacle that is its own envelope: u = h certifies tol
            res = _natural_residual(hproj, hproj, th, grid.h)
            if res <= tol:
                done = (hproj, 0, res, [res], True, 0)
        swept.append(done)

    rest = [i for i, done in enumerate(swept) if done is None]
    if rest:
        stack = _stack([hprojs[i] for i in rest])
        for i, sweep in zip(rest, _nested_sweeps(th, stack, max(tol, _HANDOVER_TOL), max_iter)):
            swept[i] = sweep
    solutions = []
    for hproj, sweep in zip(hprojs, swept):
        u, sweeps, res, history, ok, coarse_sweeps = sweep
        cg_iterations = 0
        if ok and res > tol:
            u, res, ok, cg_iterations = _active_set_finish(u, th, hproj, tol, history)
            if not ok:
                u, more, res, rest, ok = _psor_values(th, hproj, tol, max_iter - sweeps, u)
                sweeps += more
                history += rest
        report = SolverReport(
            "psor", sweeps, res, ok, history, cg_iterations=cg_iterations, coarse_sweeps=coarse_sweeps
        )
        w = th + curvature_values(u, grid.h)
        gap = np.where(np.isfinite(hproj), hproj - u, 0.0)
        defect = float((gap * w).sum()) * grid.h**2
        solutions.append(ObstacleSolution(GridField(grid, u), u == hproj, defect, report))
    for solution in solutions:
        report = solution.report
        if not report.converged:
            raise NonConvergence(
                f"projected SOR stalled at residual {report.residual:.3e} after {report.iterations} sweeps",
                best=solution,
                residual=report.residual,
                iterations=report.iterations,
            )
    return solutions


def psor_envelope(
    theta: ThetaDensity,
    obstacle: GridField,
    tol: float = _PSOR_TOL,
    max_iter: int = 200_000,
    constraint_mask: np.ndarray | None = None,
) -> ObstacleSolution:
    """Largest theta-psh field below the obstacle: :func:`psor_envelopes` of one."""
    return psor_envelopes(theta, [obstacle], tol, max_iter, [constraint_mask])[0]


def envelope_mu(
    theta: ThetaDensity,
    v: GridField,
    mu: MeasureDensity,
    tol: float = _PSOR_TOL,
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
    phi, report = newton_semilinear(th, [(float(j), v.values, mu.density.values)], u0)
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
) -> PenalizedEnvelope:
    """Penalization schedule with predicted starts and per-step diagnostics.

    The first strength starts from :func:`penalized_step`'s default guess and
    the second from the first iterate.  From the third on, the start is the
    secant predictor in s = 1/j through the last two iterates,

        phi_k + (phi_k - phi_{k-1}) * (1/j_{k+1} - 1/j_k) / (1/j_k - 1/j_{k-1}),

    which is phi_k + (phi_k - phi_{k-1}) / 2 on the doubling schedule.  Newton
    solves to its own tolerance from any start, so the iterates are those
    of a plain warm start up to that tolerance.

    Each step reports the sup/L1 distance to the obstacle-problem oracle
    (:func:`envelope_mu` at its default tolerance, computed once) and the
    minimum slack of the lower bound, whose fixed field solves
    theta + curvature(phi) = exp(phi)*mu.
    """
    from .equations import solve_ma_exponential  # local import, no cycle at call time

    schedule = schedule or PenalizationSchedule()
    oracle = envelope_mu(theta, v, mu)
    phi_fixed, _ = solve_ma_exponential(theta, mu)
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
        current, rep = penalized_step(theta, v, mu, j, init=start)
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
