"""Named analytic field families: obstacles, densities, and test corpora.

Everything here is a closed-form construction on a given grid — the runner
configs refer to these families by name, and the refinement studies rely on
the right-hand sides being analytic (so residuals measure discretization
alone, not data manufactured on the same grid).  A family takes as
parameters only what the scenarios vary: the density is 1 + a*cos(2*pi*x),
the step band has depth -1 and a random field draws the modes |kx|, ky <= 3.

The supersolution corpus builds pairs (v, f) satisfying, for theta = 1,

    (theta + dd^c v)_+ <= e^v f

with equality on the smooth contact regions, so the envelope pipeline's
residual is pure O(h^2) truncation error and shrinks under refinement:

* ``smooth_supersolution``   -- a cosine with its exact density;
* ``min_two_supersolution``  -- a transversal minimum of two cosines, f
  assembled branchwise with a one-cell inflation at the crossing;
* ``ramp_supersolution``     -- the quadratic ramp of a step (the value of
  min(step(y) + j|x-y|^2)) over a cosine background: convex junctions and
  one concave crease, the classic non-smooth supersolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import GridField, ThetaDensity, TorusGrid, curvature_values, neighbor_table

__all__ = [
    "SupersolutionDatum",
    "cosine_field",
    "theta_cosine",
    "step_band",
    "random_smooth_field",
    "random_theta_psh",
    "smooth_supersolution",
    "min_two_supersolution",
    "ramp_supersolution",
    "supersolution_corpus",
]


def cosine_field(
    grid: TorusGrid, amplitude: float, kx: int = 1, ky: int = 0, phase: float = 0.0
) -> GridField:
    """amplitude * cos(2*pi*(kx*x + ky*y) + phase)."""
    x, y = grid.coords()
    return GridField(
        grid, amplitude * np.cos(2.0 * np.pi * (kx * x + ky * y) + phase)
    )


def _cosine_curvature(grid, amplitude, kx=1, ky=0, phase=0.0) -> np.ndarray:
    """Exact curvature (Laplacian / 2pi) of the cosine above."""
    x, y = grid.coords()
    k2 = float(kx * kx + ky * ky)
    return (
        -2.0 * np.pi * k2 * amplitude * np.cos(2.0 * np.pi * (kx * x + ky * y) + phase)
    )


def theta_cosine(grid: TorusGrid, *, amplitude: float = 0.0) -> ThetaDensity:
    """Density 1 + amplitude*cos(2*pi*x); mean 1."""
    x, _ = grid.coords()
    return ThetaDensity(GridField(grid, 1.0 + amplitude * np.cos(2.0 * np.pi * x)))


def step_band(grid: TorusGrid, x0: float, x1: float):
    """Two-valued obstacle on a band in x: (true values, lsc sampling).

    The true obstacle is -1 strictly inside (x0, x1) and 0 at the edge
    samples; the lower-semicontinuous sampling extends -1 to the closed
    band, which is the constraint set the envelope actually sees.  Defect
    integrands use the true values, solvers the lsc ones.
    """
    if not 0.0 <= x0 < x1 <= 1.0:
        raise ValueError("band must satisfy 0 <= x0 < x1 <= 1")
    x, _ = grid.coords()
    open_band = (x > x0) & (x < x1)
    closed_band = (x >= x0) & (x <= x1)
    true_vals = np.where(open_band, -1.0, 0.0)
    lsc_vals = np.where(closed_band, -1.0, 0.0)
    return GridField(grid, true_vals), GridField(grid, lsc_vals)


def random_smooth_field(grid: TorusGrid, rng: np.random.Generator, *, amplitude: float = 1.0) -> GridField:
    """Random trigonometric polynomial of the modes |kx|, ky <= 3, sup-norm amplitude."""
    n = grid.n
    spec = np.zeros((n, n // 2 + 1), dtype=complex)
    # the modes kx = -3..3 (outer), ky = 0..3 (inner) but (0, 0), each given
    # re + i*im from one draw of all their normals in that order; on every
    # grid (n >= 8) the rows kx % n are distinct
    kx, ky = np.divmod(np.arange(7 * 4), 4)
    kx -= 3
    keep = (kx != 0) | (ky != 0)
    kx, ky = kx[keep], ky[keep]
    draws = rng.standard_normal(2 * kx.size)
    spec[kx % n, ky] = draws[0::2] + 1j * draws[1::2]
    vals = np.fft.irfft2(spec, s=(n, n)) * n * n
    vals *= amplitude / np.abs(vals).max()
    return GridField(grid, vals)


def random_theta_psh(theta: ThetaDensity, rng: np.random.Generator) -> GridField:
    """Random admissible field: a trig polynomial scaled into the theta-psh cone.

    Requires min(theta.density) > 0 (a strictly positive form); the scaling
    keeps ma_density >= 0.1 * min(theta) pointwise.
    """
    theta_min = float(theta.density.values.min())
    if theta_min <= 0:
        raise ValueError("random admissible fields need a strictly positive density")
    raw = random_smooth_field(theta.grid, rng)
    curv_min = float(curvature_values(raw.values, theta.grid.h).min())
    if curv_min >= 0:
        return raw
    scale = 0.9 * theta_min / (-curv_min)
    return GridField(theta.grid, scale * raw.values)


# ---------------------------------------------------------------------------
# the supersolution corpus
# ---------------------------------------------------------------------------


@dataclass
class SupersolutionDatum:
    """One corpus member: the field, its analytic density, and a gate tolerance.

    ``gate_tol`` absorbs the two discretization effects of the pointwise
    check: O(h^2) truncation of the centered curvature on smooth regions,
    and the downward shift of inf-convolution preprocessing at strength
    j = N, which moves any field with gradient g by up to g^2/(4 j)
    and so lowers the right-hand side e^v f by that times its sup.
    """

    name: str
    v: GridField
    f: GridField
    gate_tol: float


def _gate_tol(grid: TorusGrid, grad_max: float, ef_max: float, trunc: float) -> float:
    """A-priori bound on the worst check margin for an equality-tight member."""
    shift = grad_max**2 / (4.0 * grid.n)
    return 2.0 * shift * ef_max + trunc + 1e-10


def _stencil_max(values: np.ndarray) -> np.ndarray:
    """Max over the 5-point stencil; inflates branchwise curvature data by
    one cell so junction sites are charged against the larger branch."""
    n = values.shape[0]
    return np.maximum(values, values.ravel()[neighbor_table(n)].max(axis=1).reshape(n, n))


def smooth_supersolution(grid: TorusGrid) -> SupersolutionDatum:
    """v = a*cos(2pi x) with a = 0.05, f = e^{-v}(1 + curvature(v)): exact equality."""
    a = 0.05
    v = cosine_field(grid, a, 1, 0)
    c = _cosine_curvature(grid, a, 1, 0)
    f = GridField(grid, np.exp(-v.values) * (1.0 + c))
    trunc = 2.0 * np.pi**3 * a * grid.h**2
    ef_max = float(np.exp(v.values.max()) * f.values.max())
    tol = _gate_tol(grid, 2.0 * np.pi * a, ef_max, trunc)
    return SupersolutionDatum("smooth", v, f, tol)


def min_two_supersolution(grid: TorusGrid) -> SupersolutionDatum:
    """v = min of two crossing cosines, f assembled from the active branch.

    The cosines are 0.05*cos(2pi x) and 0.04*cos(2pi (y + 0.13)).
    """
    a1, a2, phase = 0.05, 0.04, 2.0 * np.pi * 0.13
    v1 = cosine_field(grid, a1, 1, 0)
    v2 = cosine_field(grid, a2, 0, 1, phase=phase)
    c1 = _cosine_curvature(grid, a1, 1, 0)
    c2 = _cosine_curvature(grid, a2, 0, 1, phase=phase)
    use1 = v1.values <= v2.values
    v = GridField(grid, np.where(use1, v1.values, v2.values))
    c_active = np.where(use1, c1, c2)
    f = GridField(grid, np.exp(-v.values) * (1.0 + _stencil_max(c_active)))
    trunc = 2.0 * np.pi**3 * max(a1, a2) * grid.h**2
    ef_max = float(np.exp(v.values.max()) * f.values.max())
    tol = _gate_tol(grid, 2.0 * np.pi * (a1 + a2), ef_max, trunc)
    return SupersolutionDatum("min-two-smooth", v, f, tol)


def ramp_supersolution(grid: TorusGrid) -> SupersolutionDatum:
    """Quadratic ramp out of a step (value of min_y step(y) + j|x-y|^2) plus a cosine.

    The step has depth 0.25 on the band [0.375, 0.625], the ramp strength is
    j = 4 and the background 0.03*cos(2pi x).  The ramp, of half-width
    sqrt(depth / j) = 0.25, meets the flat level in a concave crease (slope
    jump 2*sqrt(j*depth)) and leaves the band through convex junctions; the
    density uses the stencil-inflated branch curvature, so the pointwise
    inequality holds with equality on the ramp's interior.
    """
    x0, x1, depth, j_ramp, amplitude = 0.375, 0.625, 0.25, 4.0, 0.03
    x, _ = grid.coords()
    t_star = float(np.sqrt(depth / j_ramp))
    dist = np.maximum.reduce([x0 - x, x - x1, np.zeros_like(x)])
    ramp = np.where(dist <= t_star, -depth + j_ramp * dist**2, 0.0)
    background = amplitude * np.cos(2.0 * np.pi * x)
    v = GridField(grid, ramp + background)
    c_branch = np.where(
        (dist > 0) & (dist <= t_star), 2.0 * j_ramp / (2.0 * np.pi), 0.0
    )
    c_branch = c_branch + _cosine_curvature(grid, amplitude, 1, 0)
    f = GridField(grid, np.exp(-v.values) * (1.0 + _stencil_max(c_branch)))
    grad_max = 2.0 * np.sqrt(j_ramp * depth) + 2.0 * np.pi * amplitude
    trunc = 2.0 * np.pi**3 * amplitude * grid.h**2
    ef_max = float(np.exp(v.values.max()) * f.values.max())
    tol = _gate_tol(grid, grad_max, ef_max, trunc)
    return SupersolutionDatum("ramp-step", v, f, tol)


def supersolution_corpus(grid: TorusGrid) -> list:
    """The three-member curated corpus, for theta = 1."""
    return [
        smooth_supersolution(grid),
        min_two_supersolution(grid),
        ramp_supersolution(grid),
    ]
