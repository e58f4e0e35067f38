"""Envelope solvers on the torus: projected SOR and exponential penalization.

Two independent routes to the same envelope:

* :func:`psor_envelope` solves the discrete linear complementarity problem

      u <= h,   theta + curvature(u) >= 0,   (h - u) * (theta + curvature(u)) = 0

  by red-black projected successive over-relaxation from the constant
  min(h).  The problem's matrix is an M-matrix, so its solution does not
  depend on the start: it is the largest theta-psh field below the
  obstacle h (constraints optionally imposed only on a mask, which yields
  the envelope relative to a measure that vanishes elsewhere).

* :func:`penalized_step` solves the smooth penalized equation

      theta + curvature(phi) = exp(j * (phi - v)) * mu

  by damped Newton; :func:`penalized_envelope` runs a geometric schedule in
  the penalty strength j with warm starts.  As j grows the iterates descend
  to the envelope of v relative to mu, with the classical lower bound

      phi_j >= (1 - 1/j) * P(v) + phi_fixed / j + (-log j + inf v) / j

  where phi_fixed solves theta + curvature(phi) = exp(phi) * mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._newton import SolverReport, newton_semilinear
from .errors import EmptySupport, NonConvergence
from .torus import (
    GridField,
    MeasureDensity,
    ThetaDensity,
    curvature_values,
    ma_density,
    neighbor_sum,
)

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
    """Envelope below an obstacle: field, contact set and complementarity data."""

    u: GridField
    contact_mask: np.ndarray
    complementarity_defect: float
    report: SolverReport
    contact_tol: float


def _natural_residual(u, hproj, theta, h):
    w = theta + curvature_values(u, h)
    return float(np.abs(np.minimum(hproj - u, w)).max())


def _refresh_ghosts(padded: np.ndarray) -> None:
    """Copy the periodic wrap of the interior into the one-site ghost layer."""
    padded[0, 1:-1] = padded[-2, 1:-1]
    padded[-1, 1:-1] = padded[1, 1:-1]
    padded[1:-1, 0] = padded[1:-1, -2]
    padded[1:-1, -1] = padded[1:-1, 1]


def _quarter_lattice(padded, ctheta, hproj, a, b):
    """Strided views for the sites (i, j) with i = a, j = b (mod 2).

    Returns the site view, its four neighbour views in the order i-1, i+1,
    j-1, j+1, and the matching ctheta and hproj slices.
    """
    n = ctheta.shape[0]

    def span(p, lo):
        return slice(p + lo, n + lo, 2)

    sites = padded[span(a, 1), span(b, 1)]
    neighbours = (
        padded[span(a, 0), span(b, 1)],
        padded[span(a, 2), span(b, 1)],
        padded[span(a, 1), span(b, 0)],
        padded[span(a, 1), span(b, 2)],
    )
    return sites, neighbours, ctheta[a::2, b::2], hproj[a::2, b::2]


def _psor_values(theta, hproj, tol, max_iter, init):
    """Red-black projected SOR on a ghost-padded copy of the iterate.

    Each half-sweep relaxes only the sites of its colour, as two
    quarter-lattices updated in place through strided views.  A colour's
    neighbours all have the other colour, so this is the same Jacobi step per
    colour as relaxing the whole grid and keeping that colour, with the same
    floating-point operations in the same order.  The relaxation factor is
    the optimal one for the periodic Laplacian, 2 / (1 + sin(pi h)).
    """
    n = theta.shape[0]
    h = 1.0 / n
    omega = 2.0 / (1.0 + np.sin(np.pi * h))
    ctheta = 2.0 * np.pi * h * h * theta

    padded = np.empty((n + 2, n + 2))
    u = padded[1:-1, 1:-1]
    np.minimum(init, hproj, out=u)
    colours = [
        [_quarter_lattice(padded, ctheta, hproj, a, b) for a, b in quarters]
        for quarters in (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    ]
    s = np.empty((n // 2, n // 2))

    history = []
    sweeps = 0
    check_every = 8
    while sweeps < max_iter:
        for colour in colours:
            _refresh_ghosts(padded)
            for sites, (im, ip, jm, jp), ct, hp in colour:
                np.add(im, ip, out=s)
                s += jm
                s += jp
                s += ct
                s *= 0.25
                s -= sites
                s *= omega
                s += sites
                np.minimum(s, hp, out=sites)
        sweeps += 1
        if sweeps % check_every == 0 or sweeps == max_iter:
            res = _natural_residual(u, hproj, theta, h)
            history.append(res)
            if res <= tol:
                return u.copy(), sweeps, res, history, True
    res = _natural_residual(u, hproj, theta, h)
    history.append(res)
    return u.copy(), sweeps, res, history, False


def psor_envelope(
    theta: ThetaDensity,
    obstacle: GridField,
    tol: float = 1e-9,
    max_iter: int = 200_000,
    constraint_mask: np.ndarray | None = None,
) -> ObstacleSolution:
    """Largest theta-psh field below the obstacle (projected SOR).

    The termination criterion is the sup norm of the natural residual
    ``min(obstacle - u, ma_density(theta, u))``, which controls feasibility,
    positivity and complementarity at once.  When ``constraint_mask`` is
    given, the obstacle is enforced only on masked nodes (envelope relative
    to a measure supported there); elsewhere the equation ma = 0 holds.

    Raises :class:`NonConvergence` (carrying the best iterate) if the sweep
    budget is exhausted.
    """
    grid = theta.grid
    if obstacle.grid.n != grid.n:
        raise ValueError("obstacle and theta grids differ")
    th = theta.density.values
    hproj = obstacle.values.copy()
    if constraint_mask is not None:
        mask = np.asarray(constraint_mask, dtype=bool)
        if mask.shape != hproj.shape:
            raise ValueError("constraint mask shape mismatch")
        if not mask.any():
            raise EmptySupport("constraint mask is empty")
        hproj = np.where(mask, hproj, np.inf)
    else:
        mask = np.ones_like(hproj, dtype=bool)

    u0 = np.full_like(hproj, float(hproj[mask].min()))
    u, sweeps, res, history, ok = _psor_values(th, hproj, tol, max_iter, u0)
    report = SolverReport("psor", sweeps, res, ok, history)
    contact_tol = 1e-6 * (1.0 + float(np.abs(obstacle.values[mask]).max()))
    w = th + curvature_values(u, grid.h)
    gap = np.where(mask, obstacle.values - u, 0.0)
    contact = mask & (gap <= contact_tol)
    defect = float((gap * w).sum()) * grid.h**2
    solution = ObstacleSolution(GridField(grid, u), contact, defect, report, contact_tol)
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
    max_iter: int = 80,
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
        th, [(float(j), v.values, mu.density.values)], u0, tol=tol, max_iter=max_iter
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
    phi_fixed: GridField

    @property
    def final(self) -> GridField:
        return self.iterates[-1]


def penalized_envelope(
    theta: ThetaDensity,
    v: GridField,
    mu: MeasureDensity,
    schedule: PenalizationSchedule | None = None,
    newton_tol: float = 1e-10,
    psor_tol: float = 1e-10,
) -> PenalizedEnvelope:
    """Warm-started penalization schedule with per-step diagnostics.

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
    current = None
    h2 = theta.grid.h**2
    for j in schedule.js:
        current, rep = penalized_step(theta, v, mu, j, init=current, tol=newton_tol)
        iterates.append(current)
        d = current.values - oracle.u.values
        sups.append(float(np.abs(d).max()))
        l1s.append(float(np.abs(d).sum() * h2))
        slacks.append(lower_bound_slack(current, oracle.u, phi_fixed, j, inf_v))
        reports.append(rep)
    return PenalizedEnvelope(
        schedule.js, iterates, sups, l1s, slacks, reports, oracle, phi_fixed
    )


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
