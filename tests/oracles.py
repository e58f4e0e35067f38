"""Independent reference computations used to cross-check the library.

Each oracle deliberately uses a different method from the implementation it
checks: dense active-set linear algebra instead of projected relaxation,
Fourier collocation instead of finite differences, brute-force search over
affine minorants instead of hull construction, high-precision scalar
arithmetic instead of float formulas.  Agreement is then evidence, not an
identity.  Some exceptions keep the library's method and change only its
mechanics, so the optimized forms must agree with them bit for bit:
:func:`psor_sweeps_reference`, the plain whole-grid form of the library's
projected SOR sweep; :func:`roll_neighbor_sum`, the neighbour sum by
``np.roll``; :func:`laplacian_matrix_reference`, the periodic Laplacian
assembled as a Kronecker sum; :func:`inf_convolution_reference`, the
inf-convolution by brute force over every shift; and
:func:`lower_hull_reference`, the radial hull scan on numpy scalars;
:func:`random_smooth_field_reference`, the random spectrum drawn one mode
at a time; :func:`csv_reference`, the CSV text formatted one cell at a
time; and :func:`quasi_triangle_reference`, the quasi-triangle ratio with
every density and gap recomputed per pairing.  :func:`newton_direct_reference`, damped Newton
with a fresh sparse LU per step, must agree with the factorization-reusing
Newton to rounding.  :func:`capacity_lp_reference` hands the capacity
linear program to a general simplex solver, where the library certifies the
envelope's value by a duality gap.
"""

from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.ndimage import convolve
from scipy.optimize import linprog

from maenv._newton import _EXP_CAP, SolverReport
from maenv.errors import NewtonStall, NonConvergence
from maenv.torus import GridField, laplacian_matrix, ma_density


def roll_neighbor_sum(u):
    """Sum of the four periodic neighbours, in the order i-1, i+1, j-1, j+1."""
    return (
        np.roll(u, 1, axis=0)
        + np.roll(u, -1, axis=0)
        + np.roll(u, 1, axis=1)
        + np.roll(u, -1, axis=1)
    )


def laplacian_matrix_reference(n):
    """Five-point periodic Laplacian scaled by 1/h^2, as the Kronecker sum
    T (x) I + I (x) T of the one-dimensional periodic second difference T."""
    h2 = (1.0 / n) ** 2
    ones = np.ones(n)
    t = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], [-1, 0, 1], format="lil")
    t[0, n - 1] = 1.0
    t[n - 1, 0] = 1.0
    t = t.tocsr()
    eye = sp.identity(n, format="csr")
    lap = (sp.kron(t, eye) + sp.kron(eye, t)) / h2
    return lap.tocsc()


def _minplus_all_shifts(cost, arr, chunk=32):
    # out[a, :] = min_b cost[a, b] + arr[b, :]
    n = arr.shape[0]
    out = np.empty_like(arr)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = cost[start:stop, :, None] + arr[None, :, :]
        out[start:stop] = block.min(axis=1)
    return out


def inf_convolution_reference(values, j):
    """min_z { u(z) + j * d(x, z)^2 } over every grid point z, as two passes
    of a dense min-plus product with the periodic squared-distance cost."""
    n = values.shape[0]
    h = 1.0 / n
    k = np.arange(n)
    dist = h * np.minimum(k, n - k)
    shift = np.abs(k[:, None] - k[None, :])
    cost = j * dist[np.minimum(shift, n - shift)] ** 2
    mid = _minplus_all_shifts(cost, values)
    return _minplus_all_shifts(cost, mid.T).T


def psor_sweeps_reference(theta, hproj, tol, max_iter, omega, init):
    """Red-black projected SOR relaxing the whole grid each half-sweep and
    keeping one colour; same return value as ``maenv.obstacle._psor_values``,
    whose arguments it takes plus ``omega`` (None: the factor
    2 / (1 + sin(pi h)) that ``_psor_values`` always uses).

    The natural residual ``max |min(hproj - u, theta + curvature(u))|`` is
    checked every 8 sweeps and at the last one.
    """
    n = theta.shape[0]
    h = 1.0 / n
    if omega is None:
        omega = 2.0 / (1.0 + np.sin(np.pi * h))
    ctheta = 2.0 * np.pi * h * h * theta

    ii, jj = np.indices((n, n))
    red = (ii + jj) % 2 == 0
    black = ~red

    def natural_residual(u):
        w = theta + (roll_neighbor_sum(u) - 4.0 * u) / (h * h) / (2.0 * np.pi)
        return float(np.abs(np.minimum(hproj - u, w)).max())

    u = init.copy()
    np.minimum(u, hproj, out=u)
    history = []
    sweeps = 0
    while sweeps < max_iter:
        for color in (red, black):
            gs = 0.25 * (roll_neighbor_sum(u) + ctheta)
            cand = u + omega * (gs - u)
            np.minimum(cand, hproj, out=cand)
            u[color] = cand[color]
        sweeps += 1
        if sweeps % 8 == 0 or sweeps == max_iter:
            res = natural_residual(u)
            history.append(res)
            if res <= tol:
                return u, sweeps, res, history, True
    res = natural_residual(u)
    history.append(res)
    return u, sweeps, res, history, False


def newton_direct_reference(
    theta: np.ndarray,
    terms,
    init: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 80,
    free_mask: np.ndarray | None = None,
    method: str = "newton",
):
    """Damped Newton with one sparse LU factorization per step; same
    signature and return value as ``maenv._newton.newton_semilinear``.

    The line search, merit and stopping rules are those of the library; only
    the linear solve differs (a fresh ``splu`` with the default ordering on
    every step, no reuse), so agreement checks the lagged-factorization CG.
    """
    n = theta.shape[0]
    cmat = (laplacian_matrix(n) / (2.0 * np.pi)).tocsr()
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
        g = th + cmat @ p - rhs
        if idx is not None:
            g = g[idx]
        return g, weight

    g, weight = residual(phi)
    merit = float(g @ g)
    history, damping = [], []
    it = 0
    while it < max_iter:
        res_inf = float(np.abs(g).max())
        history.append(res_inf)
        if res_inf <= tol:
            return phi.reshape(n, n), SolverReport(
                method, it, res_inf, True, history, damping, factorizations=it
            )
        it += 1
        m = sp.diags(weight) - cmat
        if idx is not None:
            m = m.tocsr()[idx][:, idx]
        delta = spla.splu(m.tocsc()).solve(g)
        full_delta = delta
        if idx is not None:
            full_delta = np.zeros_like(phi)
            full_delta[idx] = delta
        step = 1.0
        stalled = False
        while True:
            g_new, weight_new = residual(phi + step * full_delta)
            merit_new = float(g_new @ g_new)
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
                raise NewtonStall(
                    f"no acceptable Newton step at residual {res_inf:.3e}",
                    best=phi.reshape(n, n),
                    residual=res_inf,
                    iterations=it,
                )
        if stalled:
            return phi.reshape(n, n), SolverReport(
                method, it, res_inf, res_inf <= tol, history, damping, factorizations=it
            )
        damping.append(step)
        phi = phi + step * full_delta
        g, weight, merit = g_new, weight_new, merit_new
    res_inf = float(np.abs(g).max())
    raise NonConvergence(
        f"Newton used {max_iter} iterations, residual {res_inf:.3e}",
        best=phi.reshape(n, n),
        residual=res_inf,
        iterations=it,
    )


def halfplane_log1pexp(t: float, digits: int = 40) -> float:
    """0.5 * log(1 + e^t) evaluated in high-precision decimal arithmetic."""
    getcontext().prec = digits
    d = Decimal(repr(float(t)))
    return float(((Decimal(1) + d.exp()).ln()) / 2)


def lower_hull_reference(ts, gs):
    """Monotone-chain lower hull scanning numpy scalars; the library scans
    Python floats with the same operations and must return the same
    indices."""
    idx = []
    for k in range(ts.size):
        while len(idx) >= 2:
            i, j = idx[-2], idx[-1]
            # pop j when it lies on or above the segment i -> k
            if (gs[j] - gs[i]) * (ts[k] - ts[j]) >= (gs[k] - gs[j]) * (ts[j] - ts[i]):
                idx.pop()
            else:
                break
        idx.append(k)
    return np.asarray(idx)


def cutting_plane_envelope(ts, gs, s_min=0.0, s_max=0.5, n_slopes=4097):
    """Largest function below ``gs`` that is a max of affine pieces with
    slopes on a fine grid of [s_min, s_max]; a lower bound for the true
    slope-constrained convex envelope, tight to O(slope spacing)."""
    ts = np.asarray(ts, dtype=float)
    gs = np.asarray(gs, dtype=float)
    env = np.full_like(ts, -np.inf)
    for s in np.linspace(s_min, s_max, n_slopes):
        env = np.maximum(env, s * ts + np.min(gs - s * ts))
    return env


def periodic_second_difference(n: int) -> sp.csc_matrix:
    """1-D periodic 3-point second difference over [0,1), scaled by 1/(2 pi h^2)."""
    h = 1.0 / n
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    mat = sp.diags([main, off, off], [0, 1, -1], format="lil")
    mat[0, -1] = 1.0
    mat[-1, 0] = 1.0
    return (mat.tocsc() / h**2) / (2.0 * np.pi)


def active_set_envelope_1d(theta_1d, h_1d, tol=1e-12, max_iter=500):
    """1-D periodic obstacle problem min(h - u, theta + u''/2pi) = 0 by
    primal active-set (policy) iteration with direct sparse solves."""
    theta_1d = np.asarray(theta_1d, dtype=float)
    h_1d = np.asarray(h_1d, dtype=float)
    n = len(h_1d)
    lap = periodic_second_difference(n)
    active = np.ones(n, dtype=bool)
    u = h_1d.copy()
    for _ in range(max_iter):
        free = ~active
        u = h_1d.copy()
        if free.any():
            if free.all():
                raise RuntimeError("contact set emptied; envelope has no contact")
            idx_f = np.where(free)[0]
            idx_a = np.where(active)[0]
            lff = lap[np.ix_(idx_f, idx_f)]
            lfa = lap[np.ix_(idx_f, idx_a)]
            rhs = -theta_1d[idx_f] - lfa @ h_1d[idx_a]
            u[idx_f] = spla.spsolve(sp.csc_matrix(lff), rhs)
        resid = theta_1d + lap @ u
        new_active = active.copy()
        new_active[free & (u > h_1d + tol)] = True
        new_active[active & (resid < -tol)] = False
        if np.array_equal(new_active, active):
            return u
        active = new_active
    raise RuntimeError("active-set iteration did not settle")


def spectral_exponential_1d(mu_1d, beta=1.0, tol=1e-8, max_iter=60):
    """Solve 1 + phi''/(2 pi) = e^{beta phi} mu on [0,1) by Fourier
    collocation with Newton steps, each solved by preconditioned CG.

    The residual floor is set by FFT roundoff amplified through the k^2
    symbol (about 1e-9 at m = 4096), far below the discretization errors
    this oracle is used to measure."""
    mu_1d = np.asarray(mu_1d, dtype=float)
    m = len(mu_1d)
    k = np.fft.rfftfreq(m, d=1.0 / m)
    sym = -((2.0 * np.pi * k) ** 2) / (2.0 * np.pi)  # second derivative / 2 pi

    def curv(x):
        return np.fft.irfft(sym * np.fft.rfft(x), m)

    phi = np.full(m, np.log(1.0 / mu_1d.mean()) / beta)
    for _ in range(max_iter):
        expterm = np.exp(beta * phi) * mu_1d
        res = 1.0 + curv(phi) - expterm
        if np.abs(res).max() < tol:
            return phi
        d = beta * expterm
        d_mean = d.mean()

        def matvec(x):
            return d * x - curv(x)

        def psolve(r):
            return np.fft.irfft(np.fft.rfft(r) / (d_mean - sym), m)

        op = spla.LinearOperator((m, m), matvec=matvec, dtype=float)
        pre = spla.LinearOperator((m, m), matvec=psolve, dtype=float)
        delta, info = spla.cg(op, res, M=pre, rtol=1e-13, atol=1e-15, maxiter=2000)
        if info != 0:
            raise RuntimeError(f"inner CG failed to converge (info={info})")
        phi = phi + delta
        if np.abs(delta).max() < 1e-14:  # at the FFT roundoff floor
            return phi
    raise RuntimeError("Fourier-Newton iteration did not converge")


def capacity_subset_ascent(theta, mask, seeds=10, sample=40):
    """Multi-start greedy ascent for the capacity maximization, climbing over
    the family of feasible candidates u(S) = P(V - 1_S) indexed by subsets
    S of the target set.

    Starting from a random subset, sites of the set are added while they
    improve the mass on the set; every candidate is feasible by
    construction, so the best value found is a certified lower bound, and
    across seeds the finals bracket the optimum from below.  Returns the
    list of per-seed finals.
    """
    from maenv.energy import extremal_field
    from maenv.obstacle import psor_envelope
    from maenv.torus import GridField, ma_density

    mask = np.asarray(mask, dtype=bool)
    vt = extremal_field(theta)

    def value_of(subset):
        obstacle = GridField(theta.grid, np.where(subset, vt.values - 1.0, vt.values))
        witness = psor_envelope(theta, obstacle).u
        return float((ma_density(theta, witness).values * mask).sum()) * theta.grid.h**2

    finals = []
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        subset = mask & (rng.random(mask.shape) < 0.3)
        best = value_of(subset)
        improved = True
        while improved:
            improved = False
            candidates = np.argwhere(mask & ~subset)
            rng.shuffle(candidates)
            for i, j in candidates[:sample]:
                trial = subset.copy()
                trial[i, j] = True
                trial_value = value_of(trial)
                if trial_value > best + 1e-12:
                    subset, best = trial, trial_value
                    improved = True
                    break
        finals.append(best)
    return finals


def capacity_lp_reference(theta, mask, low, high):
    """Maximize the ma-mass on the mask over low <= u <= high, ma(u) >= 0.

    The capacity linear program handed to the HiGHS simplex/interior solver
    as is: the objective and constraints are affine in u, so the maximizer
    is a vertex of a polytope.  Checks the library's certified exact mode,
    which never forms the program.  Returns the value and the solver's
    vertex as a :class:`CapacityResult`.
    """
    from maenv.energy import CapacityResult
    from maenv.torus import GridField, ma_density

    grid = theta.grid
    n = grid.n
    mask = np.asarray(mask, dtype=bool)
    cmat = (laplacian_matrix(n) / (2.0 * np.pi)).tocsc()
    ind = mask.ravel().astype(float)
    # ma-mass on E = h^2 * (theta_E + (C u)_E); only the u part varies
    objective = -(grid.h**2) * (cmat @ ind)
    result = linprog(
        objective,
        A_ub=-cmat,
        b_ub=theta.density.values.ravel(),
        bounds=np.column_stack([np.ravel(low), np.ravel(high)]),
        method="highs",
    )
    if not result.success:
        raise NonConvergence(
            f"capacity linear program failed: {result.message}",
            residual=float("nan"),
            iterations=int(getattr(result, "nit", 0) or 0),
        )
    witness = GridField(grid, result.x.reshape(n, n))
    value = float((ma_density(theta, witness).values * mask).sum()) * grid.h**2
    return CapacityResult(value, witness)


_STENCIL = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def ip_pairing_quadrature(theta, u, v, p):
    """|u-v|^p against ma(u) + ma(v), with the curvature formed by
    scipy.ndimage wrap convolution rather than the library's stencil."""
    n = theta.grid.n
    h = theta.grid.h

    def ma_vals(w):
        curv = convolve(w.values, _STENCIL, mode="wrap") / (h**2 * 2.0 * np.pi)
        return theta.density.values + curv

    weight = np.abs(u.values - v.values) ** p
    return float((weight * (ma_vals(u) + ma_vals(v))).sum() * h * h)


def moreau_of_step(dist, j, depth=1.0):
    """Closed-form Moreau envelope of a 0 / -depth step at distance ``dist``
    from the low set: min(0, j*dist^2 - depth)."""
    return np.minimum(0.0, j * np.asarray(dist, dtype=float) ** 2 - depth)


def random_smooth_field_reference(grid, rng, modes=3, amplitude=1.0):
    """The random trig polynomial of ``fields.random_smooth_field``, one draw per mode."""
    n = grid.n
    spec = np.zeros((n, n // 2 + 1), dtype=complex)
    for kx in range(-modes, modes + 1):
        for ky in range(0, modes + 1):
            if kx == 0 and ky == 0:
                continue
            re, im = rng.standard_normal(2)
            spec[kx % n, ky] = re + 1j * im
    vals = np.fft.irfft2(spec, s=(n, n)) * n * n
    peak = np.abs(vals).max()
    if peak > 0:
        vals *= amplitude / peak
    return GridField(grid, vals)


def csv_reference(header, rows):
    """The CSV text of ``scenarios._csv``, each non-str cell by format(float(cell), ".17g")."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row))
    return "\n".join(lines) + "\n"


def quasi_triangle_reference(theta, u, v, w, p):
    """(lhs, rhs, ratio) of ``energy.quasi_triangle_check``, each I_p computed afresh."""

    def ip(a, b):
        gap = np.abs(a.values - b.values) ** p
        total = ma_density(theta, a).values + ma_density(theta, b).values
        return float((gap * total).sum()) * theta.grid.h**2

    c_test = 2.0 ** (p + 1) + 3.0 * 2.0 ** (2 * p + 2)
    lhs = ip(u, v)
    base = ip(u, w) + ip(v, w)
    ratio = lhs / base if base > 0 else (0.0 if lhs <= 0 else float("inf"))
    return lhs, c_test * base, ratio
