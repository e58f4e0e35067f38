"""Energy functionals, capacities, and quantitative comparison inequalities.

In one complex dimension the Monge-Ampère density is affine in the
potential, which makes everything here either a quadrature or a linear
program:

* ``energy_Ip``  -- I_p(u, v) = integral |u-v|^p (ma(u) + ma(v)), the
  quasi-metric whose quasi-triangle constant is certified below;
* ``quasi_triangle_check`` -- that constant for one triple at every p of a
  list, from one density per field;
* ``extremal_field`` -- V_theta, the envelope of the zero obstacle and the
  upper bound of ``capacity``;
* ``capacity``   -- sup of the ma-mass placed on a set by potentials
  squeezed into [V_theta - 1, V_theta], the optimum of a linear program.
  Both modes evaluate the relative extremal envelope (Bedford & Taylor,
  Acta Math. 149, 1982): the capacity is the ma-mass on the set of the
  envelope of the obstacle equal to the lower bound on the set and the
  upper bound off it.  The exact mode also certifies it by linear-
  programming duality: the dual certificate is the discrete harmonic
  measure of the set relative to the envelope's exact contact set, and the
  value is returned only when the duality gap is within the solver
  tolerance;
* ``generalized_capacity`` -- the same with arbitrary bounds;
* ``cap_convergence_metric`` -- capacities of exceedance sets, certifying
  convergence in capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMask, NonConvergence, NoSubsolution, OrderViolation
from .obstacle import _PSOR_TOL, _free_set_solve, psor_envelope
from .torus import (
    GridField,
    ThetaDensity,
    constant_field,
    curvature_values,
    ma_density,
)

__all__ = [
    "CapacityResult",
    "QuasiTriangleResult",
    "energy_Ip",
    "quasi_triangle_check",
    "extremal_field",
    "capacity",
    "generalized_capacity",
    "cap_convergence_metric",
]


def extremal_field(theta: ThetaDensity) -> GridField:
    """V_theta: the envelope of the zero obstacle (minimal-singularity potential)."""
    return psor_envelope(theta, constant_field(theta.grid, 0.0)).u


def _ip(gap, total, p, h):
    """h^2 * sum |u - v|^p (ma(u) + ma(v)) from the pair's gap |u - v| and density sum."""
    if p <= 0:
        raise ValueError("p must be positive")
    return float((gap**p * total).sum()) * h**2


def energy_Ip(theta: ThetaDensity, u: GridField, v: GridField, p: float) -> float:
    """I_p(u, v) = integral |u - v|^p (ma(u) + ma(v)); symmetric, >= 0.

    The quadrature is the one :func:`quasi_triangle_check` evaluates for
    each of its three pairings.
    """
    total = ma_density(theta, u).values + ma_density(theta, v).values
    return _ip(np.abs(u.values - v.values), total, p, theta.grid.h)


@dataclass
class QuasiTriangleResult:
    lhs: float
    rhs: float
    c_test: float
    passed: bool
    ratio: float


def quasi_triangle_check(
    theta: ThetaDensity, u: GridField, v: GridField, w: GridField, p_values
) -> list[QuasiTriangleResult]:
    """Check I_p(u,v) <= C * (I_p(u,w) + I_p(v,w)) with C = 2^{p+1} + 3*2^{2p+2}.

    One result per p of ``p_values``, in that order.  The constant dominates
    the chain of elementary bounds used to compare the three pairings in one
    complex dimension; the result records the empirical ratio so suites can
    report how loose it is.  The three densities, gaps and density sums do
    not depend on p, so they are computed once; each I_p is then
    :func:`energy_Ip`'s quadrature, bit for bit.
    """
    h = theta.grid.h
    mu, mv, mw = (ma_density(theta, f).values for f in (u, v, w))
    pairs = (
        (np.abs(u.values - v.values), mu + mv),
        (np.abs(u.values - w.values), mu + mw),
        (np.abs(v.values - w.values), mv + mw),
    )
    results = []
    for p in p_values:
        c_test = 2.0 ** (p + 1) + 3.0 * 2.0 ** (2 * p + 2)
        lhs, uw, vw = (_ip(gap, total, p, h) for gap, total in pairs)
        base = uw + vw
        rhs = c_test * base
        ratio = lhs / base if base > 0 else (0.0 if lhs <= 0 else float("inf"))
        results.append(QuasiTriangleResult(lhs, rhs, c_test, lhs <= rhs + 1e-15, ratio))
    return results


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


@dataclass
class CapacityResult:
    """Capacity value, the field that attains it and, in exact mode, its duality gap.

    ``gap`` is the certified distance between ``value`` and the linear
    program's optimum; it is None when no certificate was computed (the
    lower-bound mode and the empty set).
    """

    value: float
    witness: GridField
    gap: float | None = None


def _mask_array(grid, e_mask) -> np.ndarray:
    mask = np.asarray(e_mask, dtype=bool)
    if mask.shape != (grid.n, grid.n):
        raise InfeasibleMask(f"mask shape {mask.shape} does not match grid ({grid.n}, {grid.n})")
    return mask


def _capacity(theta, mask, low, high, mode):
    """Ma-mass on the mask of the envelope of low on the mask and high off it.

    This is the relative extremal witness; ``mode='exact'`` also certifies
    its mass as the optimum of the capacity linear program.
    """
    grid = theta.grid
    if mode not in ("exact", "lower_bound"):
        raise ValueError(f"unknown capacity mode {mode!r}")
    obstacle = GridField(grid, np.where(mask, low, high))
    solution = psor_envelope(theta, obstacle)
    value = float((ma_density(theta, solution.u).values * mask).sum()) * grid.h**2
    if mode == "lower_bound":
        return CapacityResult(value, solution.u)
    return _exact_capacity(theta, mask, low, high, solution, value)


def _exact_capacity(theta, mask, low, high, solution, value):
    """Certify ``value`` as the optimum of the capacity linear program.

    The program maximizes the ma-mass on the mask E over low <= u <= high,
    ma(u) >= 0.  The primal witness is w = P(g), the envelope ``solution``
    of g = low on E, high off E, and ``value`` is its ma-mass on E.  The
    dual certificate is the discrete harmonic measure q of E relative to
    A = E together with the contact set {w = high} off E, the solution's
    exact ``contact_mask``: q = 1 on E, q = 0 on the rest of A,
    curvature(q) = 0 on the free sites.

    Weak duality: for any y >= 0 set q = 1_E + y and split curvature(q) =
    z_high - z_low into its positive and negative parts.  Since curvature
    is symmetric, every feasible u has

        h^2 sum_E (theta + curvature(u))
            = h^2 (sum_E theta + q.curvature(u) - y.curvature(u))
            <= h^2 (sum_E theta + z_high.high - z_low.low + y.theta),

    because y.(theta + curvature(u)) >= 0 and z_high, z_low >= 0.  With y
    = q on the free sites the bound is tight at w by complementarity, and
    the maximum principle gives the signs: 0 <= q <= 1, so y >= 0; on E,
    where q = 1 is the maximum, curvature(q) <= 0 meets w = low; on the
    contact set, where q = 0 is the minimum, curvature(q) >= 0 meets w =
    high; on the free sites curvature(q) = 0 and theta + curvature(w) = 0.

    The exact mode therefore needs an admissible lower bound: when low is
    theta-psh, w >= low and w is feasible.  Raises :class:`NoSubsolution`
    when w < low - _PSOR_TOL somewhere, and :class:`NonConvergence` (the
    gap as ``residual``) when the gap exceeds the envelope tolerance
    ``_PSOR_TOL``.
    """
    grid = theta.grid
    w = solution.u.values
    shortfall = float((low - w).max())
    if shortfall > _PSOR_TOL:
        raise NoSubsolution(
            f"the envelope falls {shortfall:.3e} below the lower bound; "
            "exact capacity needs a theta-psh lower bound"
        )
    th = theta.density.values
    ind = mask.astype(float)
    free = ~(mask | solution.contact_mask)
    q, _ = _free_set_solve(ind, np.zeros_like(th), grid.h, free)
    np.maximum(q, 0.0, out=q)
    z = curvature_values(q, grid.h)
    dual = grid.h**2 * (
        float(th[mask].sum())
        + float((np.maximum(z, 0.0) * high).sum())
        - float((np.maximum(-z, 0.0) * low).sum())
        + float(((q - ind) * th).sum())
    )
    result = CapacityResult(value, solution.u, dual - value)
    if not abs(result.gap) <= _PSOR_TOL:
        raise NonConvergence(
            f"capacity duality gap {result.gap:.3e} exceeds {_PSOR_TOL:.1e}",
            best=result,
            residual=result.gap,
        )
    return result


def capacity(
    theta: ThetaDensity,
    e_mask: np.ndarray,
    mode: str = "exact",
    v_theta: GridField | None = None,
) -> CapacityResult:
    """Capacity of a grid set: sup of ma-mass on it over V-1 <= u <= V.

    Both modes evaluate the envelope of V - 1_E, the relative extremal
    witness.  ``mode='exact'`` also certifies it as the linear program's
    optimum by a duality gap at most the envelope tolerance ``_PSOR_TOL``,
    kept in the result's ``gap``; ``mode='lower_bound'`` certifies nothing.
    """
    grid = theta.grid
    mask = _mask_array(grid, e_mask)
    if v_theta is None:
        v_theta = extremal_field(theta)
    if not mask.any():
        return CapacityResult(0.0, v_theta)
    return _capacity(theta, mask, v_theta.values - 1.0, v_theta.values, mode)


def generalized_capacity(
    theta: ThetaDensity,
    phi_low: GridField,
    psi_high: GridField,
    e_mask: np.ndarray,
    mode: str = "exact",
) -> CapacityResult:
    """Capacity with arbitrary pointwise bounds phi_low <= u <= psi_high.

    The witness is the envelope of psi_high dropped to phi_low on the set;
    it is feasible whenever phi_low is itself admissible, which the exact
    mode requires (:class:`NoSubsolution` otherwise).  Raises
    :class:`OrderViolation` when the bounds cross.
    """
    grid = theta.grid
    mask = _mask_array(grid, e_mask)
    if np.any(phi_low.values > psi_high.values + 1e-12):
        raise OrderViolation("lower bound exceeds upper bound somewhere")
    if not mask.any():
        return CapacityResult(0.0, psi_high)
    return _capacity(theta, mask, phi_low.values, psi_high.values, mode)


def cap_convergence_metric(
    theta: ThetaDensity,
    u_seq,
    u: GridField,
    eps: float,
) -> list:
    """Capacity (lower-bound mode) of {|u_j - u| > eps} for each member.

    An empty exceedance set contributes 0.  A sequence of these values
    tending to zero certifies convergence in capacity.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v_theta = extremal_field(theta)
    out = []
    for uj in u_seq:
        mask = np.abs(uj.values - u.values) > eps
        if not mask.any():
            out.append(0.0)
        else:
            out.append(capacity(theta, mask, "lower_bound", v_theta).value)
    return out
