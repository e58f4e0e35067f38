"""Monge-Ampère equations on the torus and the constructions built on them.

The basic equation is semilinear in one complex dimension,

    theta + curvature(phi) = exp(beta * phi) * mu,        beta > 0,

with a unique solution for any nonzero measure density mu (the nonlinearity
is strictly monotone).  On top of the solver this module provides:

* ``pmin_compose``       -- the envelope of the pointwise minimum of two
  potentials, with the sup and L1 norms of the partition defect certifying
  ma(phi) <= 1_{phi=u} ma(u) + 1_{phi=v} ma(v);
* ``supersolution_check`` / ``subsolution_check`` -- one-sided residuals of
  the equation defect;
* ``perron_solve``       -- the envelope of a family of supersolutions,
  folded two at a time, which descends to the equation's solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._newton import newton_semilinear
from .errors import FamilyExhausted, InputNotSupersolution, NoSubsolution
from .obstacle import psor_envelope
from .torus import (
    GridField,
    MeasureDensity,
    Residual,
    ThetaDensity,
    equation_defect,
    ma_density,
    worst_residual,
)

__all__ = [
    "PminResult",
    "PerronRound",
    "solve_ma_exponential",
    "pmin_compose",
    "supersolution_check",
    "subsolution_check",
    "perron_solve",
]


def solve_ma_exponential(
    theta: ThetaDensity,
    mu: MeasureDensity,
    beta: float = 1.0,
    tol: float = 1e-10,
):
    """Solve theta + curvature(phi) = exp(beta*phi) * mu by damped Newton.

    Returns ``(GridField, SolverReport)``.  The equation has a unique
    solution for beta > 0; the start is the constant balancing the total
    masses, log(V / mu_total) / beta.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    grid = theta.grid
    c = np.log(theta.total_mass / mu.total_mass) / beta
    u0 = np.full((grid.n, grid.n), c)
    zero = np.zeros((grid.n, grid.n))
    phi, report = newton_semilinear(
        theta.density.values,
        [(float(beta), zero, mu.density.values)],
        u0,
        tol=tol,
    )
    return GridField(grid, phi), report


# ---------------------------------------------------------------------------
# envelope of a minimum and the partition inequality
# ---------------------------------------------------------------------------


@dataclass
class PminResult:
    """P(min(u,v)), its exact contact masks and the partition-defect certificate."""

    phi: GridField
    mask_u: np.ndarray
    mask_v: np.ndarray
    max_defect: float
    l1_defect: float


def pmin_compose(
    theta: ThetaDensity,
    u: GridField,
    v: GridField,
    psor_tol: float = 1e-10,
) -> PminResult:
    """Envelope of min(u, v) and the defect of the partition inequality.

    The defect is ma(phi) - [1_{phi=u} ma(u) + 1_{phi=v} ma(v)], with the
    exact contact set phi == min(u, v) split by u <= v and v <= u; its
    maximum ``max_defect`` is at solver scale for admissible u, v, while
    its L1 norm ``l1_defect`` shrinks linearly with the grid spacing (the
    detachment ring carries O(h) mass).
    """
    grid = theta.grid
    obstacle = GridField(grid, np.minimum(u.values, v.values))
    sol = psor_envelope(theta, obstacle, tol=psor_tol)
    phi = sol.u
    mask_u = sol.contact_mask & (u.values <= v.values)
    mask_v = sol.contact_mask & (v.values <= u.values)
    claimed = mask_u * ma_density(theta, u).values + mask_v * ma_density(theta, v).values
    defect = ma_density(theta, phi).values - claimed
    return PminResult(
        phi,
        mask_u,
        mask_v,
        float(defect.max()),
        float(np.abs(defect).sum()) * grid.h**2,
    )


# ---------------------------------------------------------------------------
# one-sided residual checks
# ---------------------------------------------------------------------------


def supersolution_check(
    theta: ThetaDensity, psi: GridField, mu: MeasureDensity, tol: float = 1e-8
) -> Residual:
    """Worst ma_density(theta, psi) - e^psi * mu over the grid; passes when <= tol."""
    return worst_residual(equation_defect(theta, psi, mu.density.values), tol)


def subsolution_check(
    theta: ThetaDensity, u: GridField, mu: MeasureDensity, tol: float = 1e-8
) -> Residual:
    """Worst e^u * mu - ma_density(theta, u) over the grid; passes when <= tol."""
    return worst_residual(-equation_defect(theta, u, mu.density.values), tol)


# ---------------------------------------------------------------------------
# the envelope of supersolutions
# ---------------------------------------------------------------------------


@dataclass
class PerronRound:
    round: int
    sup_gap: float
    supersolution_residual: float
    equation_residual: float


def perron_solve(
    theta: ThetaDensity,
    mu: MeasureDensity,
    members: list,
    u0: GridField,
    equation_tol: float = 1e-6,
    psor_tol: float = 1e-10,
):
    """Descend to the equation's solution by folding supersolutions.

    Every member must pass :func:`supersolution_check` (otherwise
    :class:`InputNotSupersolution` with the failing report), and u0 must pass
    :func:`subsolution_check` (otherwise :class:`NoSubsolution`); the members
    are checked first.  Starting from the first member, each further member
    psi is folded in as P(min(current, psi)); the partition inequality keeps
    every fold a supersolution, and the subsolution u0 bounds the descent
    from below.  The iteration stops once the two-sided equation residual
    drops under ``equation_tol``; running out of members first raises
    :class:`FamilyExhausted` with the residual gap and the best fold.

    Returns ``(GridField, [PerronRound])``.
    """
    if not members:
        raise ValueError("no members to fold")
    for psi in members:
        report = supersolution_check(theta, psi, mu)
        if not report.passed:
            raise InputNotSupersolution(
                f"member violates the supersolution bound by {report.value:.3e}",
                report=report,
            )
    sub = subsolution_check(theta, u0, mu)
    if not sub.passed:
        raise NoSubsolution(
            f"u0 violates the subsolution bound by {sub.value:.3e}"
        )

    history: list[PerronRound] = []
    current: GridField | None = None
    for k, psi in enumerate(members):
        if current is None:
            current = psi
            gap = float("inf")
        else:
            folded = pmin_compose(theta, current, psi, psor_tol=psor_tol).phi
            gap = float(np.abs(folded.values - current.values).max())
            current = folded
        defect = equation_defect(theta, current, mu.density.values)
        res_super = float(defect.max())
        res_eq = float(np.abs(defect).max())
        history.append(PerronRound(k, gap, res_super, res_eq))
        if res_eq <= equation_tol:
            return current, history
    raise FamilyExhausted(
        f"folded {len(history)} members, equation residual {history[-1].equation_residual:.3e}",
        gap=history[-1].equation_residual,
        best=current,
    )
