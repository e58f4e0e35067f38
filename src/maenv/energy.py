"""Energy functionals, capacities, and quantitative comparison inequalities.

In one complex dimension the Monge-Ampère density is affine in the
potential, which makes everything here either a quadrature or a linear
program:

* ``energy_Ip``  -- I_p(u, v) = integral |u-v|^p (ma(u) + ma(v)), the
  quasi-metric whose quasi-triangle constant is certified below;
* ``capacity``   -- sup of the ma-mass placed on a set by potentials
  squeezed into [V_theta - 1, V_theta]: an exact linear program on small
  grids, or a lower bound witnessed by the relative extremal envelope;
* ``generalized_capacity`` -- the same with arbitrary bounds;
* ``cap_convergence_metric`` -- capacities of exceedance sets, certifying
  convergence in capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import InfeasibleMask, NonConvergence, OrderViolation
from .obstacle import psor_envelope
from .torus import (
    GridField,
    ThetaDensity,
    constant_field,
    laplacian_matrix,
    ma_density,
)

__all__ = [
    "CapacityResult",
    "QuasiTriangleResult",
    "energy_Ip",
    "quasi_triangle_check",
    "capacity",
    "generalized_capacity",
    "cap_convergence_metric",
]

EXACT_CAPACITY_LIMIT = 64  # largest grid for the exact linear program


def extremal_field(theta: ThetaDensity, psor_tol: float = 1e-9) -> GridField:
    """V_theta: the envelope of the zero obstacle (minimal-singularity potential)."""
    return psor_envelope(theta, constant_field(theta.grid, 0.0), tol=psor_tol).u


def energy_Ip(theta: ThetaDensity, u: GridField, v: GridField, p: float) -> float:
    """I_p(u, v) = integral |u - v|^p (ma(u) + ma(v)); symmetric, >= 0."""
    if p <= 0:
        raise ValueError("p must be positive")
    gap = np.abs(u.values - v.values) ** p
    total = ma_density(theta, u).values + ma_density(theta, v).values
    return float((gap * total).sum()) * theta.grid.h**2


@dataclass
class QuasiTriangleResult:
    lhs: float
    rhs: float
    c_test: float
    passed: bool
    ratio: float


def quasi_triangle_check(
    theta: ThetaDensity, u: GridField, v: GridField, w: GridField, p: float
) -> QuasiTriangleResult:
    """Check I_p(u,v) <= C * (I_p(u,w) + I_p(v,w)) with C = 2^{p+1} + 3*2^{2p+2}.

    The constant dominates the chain of elementary bounds used to compare
    the three pairings in one complex dimension; the result records the
    empirical ratio so suites can report how loose it is.
    """
    c_test = 2.0 ** (p + 1) + 3.0 * 2.0 ** (2 * p + 2)
    lhs = energy_Ip(theta, u, v, p)
    base = energy_Ip(theta, u, w, p) + energy_Ip(theta, v, w, p)
    rhs = c_test * base
    ratio = lhs / base if base > 0 else (0.0 if lhs <= 0 else float("inf"))
    return QuasiTriangleResult(lhs, rhs, c_test, lhs <= rhs + 1e-15, ratio)


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


@dataclass
class CapacityResult:
    value: float
    witness: GridField


def _mask_array(grid, e_mask) -> np.ndarray:
    mask = np.asarray(e_mask, dtype=bool)
    if mask.shape != (grid.n, grid.n):
        raise InfeasibleMask(f"mask shape {mask.shape} does not match grid ({grid.n}, {grid.n})")
    return mask


def _exact_capacity(theta, mask, low, high):
    """Maximize the ma-mass on the mask over low <= u <= high, ma(u) >= 0.

    The objective and constraints are affine in u, so the maximizer is a
    vertex of a polytope; delegated to a simplex/interior solver.
    """
    grid = theta.grid
    n = grid.n
    if n > EXACT_CAPACITY_LIMIT:
        raise ValueError(
            f"exact capacity is restricted to N <= {EXACT_CAPACITY_LIMIT} "
            f"(got {n}); use mode='lower_bound'"
        )
    cmat = (laplacian_matrix(n) / (2.0 * np.pi)).tocsc()
    ind = mask.ravel().astype(float)
    # ma-mass on E = h^2 * (theta_E + (C u)_E); only the u part varies
    objective = -(grid.h**2) * (cmat @ ind)
    result = linprog(
        objective,
        A_ub=-cmat,
        b_ub=theta.density.values.ravel(),
        bounds=np.column_stack([low.ravel(), high.ravel()]),
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


def _witness_capacity(theta, mask, low, high, psor_tol):
    """Lower bound from the relative extremal envelope of the (low, high) drop."""
    grid = theta.grid
    obstacle = GridField(grid, np.where(mask, low, high))
    witness = psor_envelope(theta, obstacle, tol=psor_tol).u
    value = float((ma_density(theta, witness).values * mask).sum()) * grid.h**2
    return CapacityResult(value, witness)


def capacity(
    theta: ThetaDensity,
    e_mask: np.ndarray,
    mode: str = "exact",
    v_theta: GridField | None = None,
    psor_tol: float = 1e-9,
) -> CapacityResult:
    """Capacity of a grid set: sup of ma-mass on it over V-1 <= u <= V.

    ``mode='exact'`` solves the linear program (grids up to
    ``EXACT_CAPACITY_LIMIT``); ``mode='lower_bound'`` evaluates the envelope
    of V - 1_E, the relative extremal witness, on any grid.
    """
    grid = theta.grid
    mask = _mask_array(grid, e_mask)
    if v_theta is None:
        v_theta = extremal_field(theta, psor_tol)
    if not mask.any():
        return CapacityResult(0.0, v_theta)
    if mode == "exact":
        return _exact_capacity(theta, mask, v_theta.values - 1.0, v_theta.values)
    if mode == "lower_bound":
        return _witness_capacity(
            theta, mask, v_theta.values - 1.0, v_theta.values, psor_tol
        )
    raise ValueError(f"unknown capacity mode {mode!r}")


def generalized_capacity(
    theta: ThetaDensity,
    phi_low: GridField,
    psi_high: GridField,
    e_mask: np.ndarray,
    mode: str = "exact",
    psor_tol: float = 1e-9,
) -> CapacityResult:
    """Capacity with arbitrary pointwise bounds phi_low <= u <= psi_high.

    The lower-bound witness is the envelope of psi_high dropped to phi_low
    on the set; it is feasible whenever phi_low is itself admissible.
    Raises :class:`OrderViolation` when the bounds cross.
    """
    grid = theta.grid
    mask = _mask_array(grid, e_mask)
    if np.any(phi_low.values > psi_high.values + 1e-12):
        raise OrderViolation("lower bound exceeds upper bound somewhere")
    if not mask.any():
        return CapacityResult(0.0, psi_high)
    if mode == "exact":
        return _exact_capacity(theta, mask, phi_low.values, psi_high.values)
    if mode == "lower_bound":
        return _witness_capacity(theta, mask, phi_low.values, psi_high.values, psor_tol)
    raise ValueError(f"unknown capacity mode {mode!r}")


def cap_convergence_metric(
    theta: ThetaDensity,
    u_seq,
    u: GridField,
    eps: float,
    psor_tol: float = 1e-9,
) -> list:
    """Capacity (lower-bound mode) of {|u_j - u| > eps} for each member.

    An empty exceedance set contributes 0.  A sequence of these values
    tending to zero certifies convergence in capacity.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v_theta = extremal_field(theta, psor_tol)
    out = []
    for uj in u_seq:
        mask = np.abs(uj.values - u.values) > eps
        if not mask.any():
            out.append(0.0)
        else:
            out.append(
                capacity(theta, mask, "lower_bound", v_theta, psor_tol).value
            )
    return out
