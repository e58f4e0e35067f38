"""Radially symmetric potentials reduced to convex profiles on a t-axis.

With t = log|z|^2, a rotation-invariant omega-psh potential on complex
projective space corresponds to a convex profile psi(t) whose slopes lie in
[0, 1/2]; the reference profile is the Fubini-Study potential

    rho(t) = (1/2) * log(1 + e^t).

The Monge-Ampere measure of such a profile is the pushforward of the monotone
map t -> (2 * psi'(t))^n: its cumulative function is F(t) = (2*s(t))^n with s
the left slope, jumps of s produce atoms, and the total mass is F at the right
end of the axis.  Envelopes of obstacles reduce to slope-constrained convex
envelopes computed exactly from the lower hull of the sampled obstacle.

Sampling convention for discontinuous obstacles: the sample at a jump takes
the lower-semicontinuous value when the obstacle is fed to the envelope (the
envelope is blind to upper values at single samples, but the hull needs the
lower one to pin the kink).  Integrands such as the orthogonality defect use
the plain function values against the envelope computed from the
lower-semicontinuous ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InfeasibleMask

_SLOPE_TOL = 1e-8  # slack on the slope range [0, 1/2] of a sampled profile
_ATOM_FACTOR = 10.0  # slope jump over the ambient variation that makes an atom

__all__ = [
    "TAxis",
    "RadialProfile",
    "SlopeMeasure",
    "LocalEnvelope",
    "fs_potential",
    "constrained_convex_envelope",
    "radial_envelope",
    "radial_ma_mass",
    "orthogonality_defect_radial",
    "local_envelope_ball",
    "ball_step_obstacle",
]


@dataclass(frozen=True)
class TAxis:
    """Uniform samples t_k = t_min + k*dt, k = 0..m-1, on [t_min, t_max] = [-40, 40].

    The samples are computed as (k - m/2)*dt with dt = 80/m, so for every
    even m the sample at k = m/2 is exactly 0.0 (the atom of the ball
    example sits there); t_min + k*dt can miss it by rounding.  An odd m
    has no sample at t = 0.
    """

    t_min: ClassVar[float] = -40.0
    t_max: ClassVar[float] = 40.0
    m: int = 4096

    def __post_init__(self):
        if self.m < 64:
            raise ValueError("need at least 64 samples")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / self.m

    @property
    def ts(self) -> np.ndarray:
        return (np.arange(self.m) - self.m / 2) * self.dt


class RadialProfile:
    """Sampled convex profile with slopes in [0, 1/2] (within ``_SLOPE_TOL``)."""

    __slots__ = ("axis", "_values")

    def __init__(self, axis: TAxis, values):
        arr = np.asarray(values, dtype=np.float64).copy()
        if arr.shape != (axis.m,):
            raise ValueError(f"expected {axis.m} samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("profile values must be finite")
        s = np.diff(arr) / axis.dt
        if s.size and (s.min() < -_SLOPE_TOL or s.max() > 0.5 + _SLOPE_TOL):
            raise ValueError(
                f"slopes [{s.min():.3e}, {s.max():.3e}] leave [0, 1/2] by more than {_SLOPE_TOL:g}"
            )
        if s.size > 1 and np.diff(s).min() < -1e-6 * max(1.0, np.abs(s).max()):
            raise ValueError("profile is not convex at sample resolution")
        arr.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "_values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("RadialProfile is immutable")

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def slopes(self) -> np.ndarray:
        """Chord slopes; entry k is the slope on [t_k, t_{k+1}]."""
        return np.diff(self._values) / self.axis.dt


def fs_potential(axis: TAxis) -> RadialProfile:
    """Fubini-Study profile rho(t) = log(1 + e^t) / 2, computed stably."""
    return RadialProfile(axis, 0.5 * np.logaddexp(0.0, axis.ts))


class _HullEnvelope:
    """Piecewise-linear convex minorant: clipped lower hull, evaluable anywhere."""

    def __init__(self, vx, vy, s_lo, s_hi):
        self.vx = vx  # hull vertex abscissae (after slope clipping), increasing
        self.vy = vy
        self.s_lo = s_lo  # slope used left of vx[0]
        self.s_hi = s_hi  # slope used right of vx[-1]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.interp(t, self.vx, self.vy)
        left = t < self.vx[0]
        right = t > self.vx[-1]
        out = np.where(left, self.vy[0] + self.s_lo * (t - self.vx[0]), out)
        out = np.where(right, self.vy[-1] + self.s_hi * (t - self.vx[-1]), out)
        return out


def _lower_hull(ts: np.ndarray, gs: np.ndarray):
    """Indices of the lower convex hull vertices of (ts, gs), ts increasing.

    The scan runs on Python floats: the same double-precision operations as
    on numpy scalars, without their per-operation overhead.
    """
    ts, gs = ts.tolist(), gs.tolist()
    idx = []
    for k in range(len(ts)):
        while len(idx) >= 2:
            i, j = idx[-2], idx[-1]
            # pop j when it lies on or above the segment i -> k
            if (gs[j] - gs[i]) * (ts[k] - ts[j]) >= (gs[k] - gs[j]) * (ts[j] - ts[i]):
                idx.pop()
            else:
                break
        idx.append(k)
    return np.asarray(idx)


def constrained_convex_envelope(ts, gs, *, s_max: float | None = 0.5) -> _HullEnvelope:
    """Largest convex minorant of the samples with slopes in [0, s_max].

    Computed exactly: the unconstrained lower hull is clipped by replacing the
    leading edges of negative slope (resp. trailing edges of slope > s_max)
    with rays of slope 0 (resp. s_max) through the first (resp. last)
    admissible hull vertex.  This equals the double Legendre transform with
    the conjugate restricted to [0, s_max].  ``s_max=None`` leaves the slopes
    unbounded above.
    """
    ts = np.asarray(ts, dtype=np.float64)
    gs = np.asarray(gs, dtype=np.float64)
    if ts.size < 2:
        raise ValueError("need at least two samples")
    hull = _lower_hull(ts, gs)
    hx, hy = ts[hull], gs[hull]
    slopes = np.diff(hy) / np.diff(hx)
    lo = int(np.searchsorted(slopes, 0.0, side="left"))
    hi = len(slopes) - int(np.searchsorted(-slopes[::-1], -s_max, side="left")) if s_max is not None else len(slopes)
    if hi < lo:  # all admissible slopes skipped: single kink vertex
        hi = lo
    vx, vy = hx[lo : hi + 1], hy[lo : hi + 1]
    return _HullEnvelope(vx, vy, 0.0, s_max if s_max is not None else slopes[-1] if len(slopes) else 0.0)


def radial_envelope(h, axis: TAxis) -> RadialProfile:
    """Envelope P(h) of a radial obstacle, returned as the convex profile P(h) + rho.

    The largest omega-psh minorant of h corresponds to the largest convex
    minorant of h + rho with slopes in [0, 1/2]; the dimension does not
    enter the envelope, only its measure.  Obstacle samples at jump locations
    should carry the lower-semicontinuous value (see module docstring).
    """
    h = np.asarray(h, dtype=np.float64)
    rho = fs_potential(axis).values
    env = constrained_convex_envelope(axis.ts, h + rho)
    return RadialProfile(axis, env(axis.ts))


@dataclass(frozen=True)
class SlopeMeasure:
    """Monge-Ampere measure of a convex profile in the t-coordinate.

    ``cumulative[k] = (2 * s_k)^n`` with s_k the left slope at t_k (the first
    entry uses the linearly-extended slope, so ``boundary_mass`` is the mass
    sitting at or below t_min -- profiles with positive initial slope carry an
    atom at the left end of the axis, standing in for t = -infinity).
    ``masses[k]`` is the mass placed at t_k for k = 0..m-2; entries flagged in
    ``atom_indices`` had their left slope re-estimated to second order, the
    rest form the absolutely continuous part.  By construction

        masses.sum() == cumulative[-1] - cumulative[0]   (exactly),

    and the total mass is ``cumulative[-1]``.
    """

    axis: TAxis
    n: int
    cumulative: np.ndarray
    masses: np.ndarray
    atom_indices: np.ndarray
    boundary_mass: float

    @property
    def total_mass(self) -> float:
        return float(self.cumulative[-1])

    @property
    def atoms(self) -> list:
        ts = self.axis.ts
        return [(float(ts[i]), float(self.masses[i])) for i in self.atom_indices]


def _window_median(x: np.ndarray) -> np.ndarray:
    """Median of the 9 samples centred at each sample, the ends repeated outward."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(x, 4, mode="edge"), 9)
    return np.median(windows, axis=1)


def radial_ma_mass(profile: RadialProfile, n: int) -> SlopeMeasure:
    """Slope measure of a convex profile: cumulative F, atoms, boundary mass.

    A slope jump counts as an atom when it exceeds ``_ATOM_FACTOR`` times the
    ambient per-cell slope variation (a windowed median of the neighbouring
    jumps).  At detected atoms the left slope is re-estimated with a one-sided
    second-order difference, which sharpens the atom mass by O(dt^2) without
    breaking the telescoping of the cumulative function.
    """
    if n < 1:
        raise ValueError("dimension n must be a positive integer")
    axis, dt = profile.axis, profile.axis.dt
    v = profile.values
    s = np.empty(axis.m)
    s[1:] = np.diff(v) / dt
    s[0] = s[1]  # linear extension below t_min
    s = np.clip(s, 0.0, 0.5)

    jumps = np.diff(s)  # jump at sample k is jumps[k] = s_{k+1} - s_k, k = 0..m-2
    pos = np.maximum(jumps, 0.0)
    ambient = _window_median(pos)
    floor = 1e-9 * max(1.0, float(np.abs(s).max()))
    atom_mask = pos > _ATOM_FACTOR * ambient + floor
    atom_indices = np.nonzero(atom_mask)[0]

    cumulative = (2.0 * s) ** n
    for i in atom_indices:
        if i >= 2:
            s_left = (3.0 * v[i] - 4.0 * v[i - 1] + v[i - 2]) / (2.0 * dt)
            s_left = min(max(s_left, s[i]), s[i + 1], 0.5)
            cumulative[i] = (2.0 * max(s_left, 0.0)) ** n
    masses = np.diff(cumulative)
    return SlopeMeasure(
        axis=axis,
        n=n,
        cumulative=cumulative,
        masses=masses,
        atom_indices=atom_indices,
        boundary_mass=float(cumulative[0]),
    )


def orthogonality_defect_radial(h, profile: RadialProfile, measure: SlopeMeasure) -> float:
    """Integral of (h - P(h)) against the measure of the envelope's profile.

    ``profile`` is the envelope's profile ``radial_envelope(h_lsc, axis)``
    and ``measure`` its ``radial_ma_mass``; h carries the plain function
    values, while the envelope was fed the lower-semicontinuous sampling when
    h has jumps.  Nonnegative; vanishes for obstacles continuous at grid
    scale, and picks up exactly the atom contributions for two-valued steps.
    """
    h = np.asarray(h, dtype=np.float64)
    potential = profile.values - fs_potential(profile.axis).values
    gap = h - potential
    defect = float(np.dot(gap[:-1], measure.masses))
    defect += gap[0] * measure.boundary_mass
    return defect


@dataclass(frozen=True)
class LocalEnvelope:
    """Envelope of an obstacle over psh profiles local to the unit ball."""

    ts: np.ndarray
    values: np.ndarray


def local_envelope_ball(h, axis: TAxis, mode: str) -> LocalEnvelope:
    """Largest convex nondecreasing minorant on the ball {t <= 0}.

    ``mode='interior'`` constrains only at samples t < 0 (envelope over psh
    functions of the open ball; the value at t = 0 is the boundary limit),
    ``mode='closure'`` also enforces the sample at t = 0.  Radial psh profiles
    on the ball are convex and nondecreasing with no upper slope bound, so the
    slope constraint is [0, infinity).
    """
    if mode not in ("interior", "closure"):
        raise ValueError(f"mode must be 'interior' or 'closure', got {mode!r}")
    h = np.asarray(h, dtype=np.float64)
    ts = axis.ts
    keep = ts <= 0.0
    if not np.any(keep):
        raise InfeasibleMask("axis has no samples with t <= 0")
    t_ball, h_ball = ts[keep], h[keep]
    if mode == "interior":
        strict = t_ball < 0.0
        if strict.sum() < 2:
            raise InfeasibleMask("need at least two interior samples")
        env = constrained_convex_envelope(t_ball[strict], h_ball[strict], s_max=None)
    else:
        env = constrained_convex_envelope(t_ball, h_ball, s_max=None)
    return LocalEnvelope(ts=t_ball, values=env(t_ball))


def ball_step_obstacle(axis: TAxis) -> tuple:
    """Obstacle -1 on the open unit ball {t < 0}, 0 on its closed complement.

    Returns ``(h, h_lsc)``: the plain samples (h = 0 at t = 0) and the
    lower-semicontinuous sampling (h = -1 at t = 0) used by the envelope.
    """
    ts = axis.ts
    h = np.where(ts < 0.0, -1.0, 0.0)
    h_lsc = np.where(ts <= 0.0, -1.0, 0.0)
    return h, h_lsc
