"""Pointwise viscosity-type verification and the supersolution-to-envelope pipeline.

A field v is accepted as a discrete supersolution of

    (theta + dd^c v)_+ <= e^v f        (or <= f with exponential=False)

when the inequality holds at every site after replacing v by its
inf-convolution: the second differences of a general field carry no
one-sided information at downward kinks, and inf-convolution is exactly the
semiconvex regularization that preserves supersolutions.  Sites where the
regularization is inactive are checked on the raw field; their fraction is
reported.

``supersolution_envelope_pipeline`` then certifies the structural theorem
this package is organized around: the envelope P(v) of a viscosity
supersolution satisfies the same inequality in the pluripotential
(equation-residual) sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputNotSupersolution
from .obstacle import ObstacleSolution, psor_envelope
from .torus import (
    GridField,
    Residual,
    ThetaDensity,
    equation_defect,
    inf_convolution,
    integrate,
    ma_density,
    worst_residual,
)

__all__ = [
    "PipelineResult",
    "check_supersolution_visc",
    "supersolution_envelope_pipeline",
    "mass_bound_check",
]


def _validate_weight(f: GridField):
    if np.any(f.values < 0):
        raise ValueError("the density f must be nonnegative")


def check_supersolution_visc(
    theta: ThetaDensity,
    v: GridField,
    f: GridField,
    tol: float = 1e-8,
    exponential: bool = True,
) -> tuple[Residual, float]:
    """Test (theta + curvature(v))_+ <= e^v f + tol at every site.

    The field is first inf-convolved at strength j = N (one smoothing length
    per cell) and the defect is evaluated on the regularized field
    everywhere.  Returns ``(residual, checked_fraction)``, the fraction
    being the share of sites where the regularization was inactive.  With
    ``exponential=False`` the right-hand side is f alone.
    """
    _validate_weight(f)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    v_reg = inf_convolution(v, float(theta.grid.n))
    scale = 1.0 + float(np.abs(v.values).max())
    inactive = v_reg.values >= v.values - 1e-12 * scale
    lhs = np.maximum(ma_density(theta, v_reg).values, 0.0)
    rhs = f.values * (np.exp(v_reg.values) if exponential else 1.0)
    return worst_residual(lhs - rhs, tol), float(inactive.mean())


@dataclass
class PipelineResult:
    residual: float
    input_report: Residual
    checked_fraction: float
    solution: ObstacleSolution


def supersolution_envelope_pipeline(
    theta: ThetaDensity,
    v: GridField,
    f: GridField,
    visc_tol: float = 1e-8,
) -> PipelineResult:
    """Envelope a viscosity supersolution and report its equation residual.

    The input must pass :func:`check_supersolution_visc` (otherwise
    :class:`InputNotSupersolution`); the output residual is

        max over the grid of ma_density(theta, P(v)) - e^{P(v)} f,

    which the structural theorem drives to zero with the grid.
    """
    report, checked_fraction = check_supersolution_visc(theta, v, f, tol=visc_tol)
    if not report.passed:
        raise InputNotSupersolution(
            f"input violates the viscosity bound by {report.value:.3e} "
            f"at site {report.site}",
            report=report,
        )
    sol = psor_envelope(theta, v)
    residual = float(equation_defect(theta, sol.u, f.values).max())
    return PipelineResult(residual, report, checked_fraction, sol)


def mass_bound_check(theta: ThetaDensity, f: GridField) -> bool:
    """Whether integrate(f) >= V - 1e-12: the solvability threshold.

    Densities below the volume admit no supersolution of
    (theta + dd^c u)_+ <= f — the positive part alone already carries total
    mass >= V — while any f at or above the threshold does.
    """
    _validate_weight(f)
    return bool(integrate(f) >= theta.total_mass - 1e-12)
