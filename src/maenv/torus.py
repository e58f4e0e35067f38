"""Core grid types and operators for potentials on the flat torus [0,1)^2.

The complex-dimension-one reduction works with real-valued potentials u on a
uniform N x N periodic grid.  A background density ``theta`` with positive
total mass V plays the role of a semipositive form twisted by ``dd^c u``; the
normalization is

    curvature(u) = Laplacian(u) / (2*pi),
    ma_density(theta, u) = theta + curvature(u),

so that ``integrate(ma_density(theta, u)) == V`` identically (the discrete
Laplacian sums to zero over the torus).  A field is theta-plurisubharmonic
(theta-psh) when its ma_density is nonnegative.

Every one-sided check reports a :class:`Residual`: the worst value of a
signed defect array, positive where the inequality is violated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "TorusGrid",
    "GridField",
    "ThetaDensity",
    "MeasureDensity",
    "Residual",
    "constant_field",
    "field_from_function",
    "curvature_values",
    "ma_density",
    "is_theta_psh",
    "integrate",
    "inf_convolution",
    "laplacian_matrix",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic N x N grid on the unit square with spacing h = 1/N."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def coords(self):
        """Return meshgrid arrays X, Y with X[i, j] = i*h and Y[i, j] = j*h."""
        xs = np.arange(self.n) * self.h
        return np.meshgrid(xs, xs, indexing="ij")


class GridField:
    """Immutable real field sampled on a :class:`TorusGrid`.

    Values are stored as a read-only float64 array of shape (N, N); all
    operators return new fields.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid: TorusGrid, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (grid.n, grid.n):
            raise ValueError(f"expected shape {(grid.n, grid.n)}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridField is immutable")

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __repr__(self):
        v = self._values
        return f"GridField(n={self.grid.n}, min={v.min():.6g}, max={v.max():.6g})"


def constant_field(grid: TorusGrid, value: float) -> GridField:
    return GridField(grid, np.full((grid.n, grid.n), float(value)))


def field_from_function(grid: TorusGrid, fn) -> GridField:
    """Sample ``fn(x, y)`` (vectorized over arrays) at the grid nodes."""
    x, y = grid.coords()
    return GridField(grid, np.asarray(fn(x, y), dtype=np.float64))


@dataclass(frozen=True)
class ThetaDensity:
    """Background density; its integral V = integrate(density) is the total mass.

    The density may change sign.  V must be strictly positive.
    """

    density: GridField

    def __post_init__(self):
        if self.total_mass <= 0:
            raise ValueError("theta density must have positive total mass")

    @property
    def grid(self) -> TorusGrid:
        return self.density.grid

    @property
    def total_mass(self) -> float:
        return integrate(self.density)


@dataclass(frozen=True)
class MeasureDensity:
    """Nonnegative reference density; may vanish on part of the grid."""

    density: GridField

    def __post_init__(self):
        v = self.density.values
        if np.any(v < 0):
            raise ValueError("measure density must be nonnegative")
        if not np.any(v > 0):
            raise ValueError("measure density must not vanish identically")

    @property
    def grid(self) -> TorusGrid:
        return self.density.grid

    @property
    def support_mask(self) -> np.ndarray:
        return self.density.values > 0

    @property
    def total_mass(self) -> float:
        return integrate(self.density)


def neighbor_sum(values: np.ndarray) -> np.ndarray:
    """Sum of the four periodic neighbours, in the order i-1, i+1, j-1, j+1."""
    v = np.asarray(values)
    out = np.empty(v.shape, dtype=v.dtype)
    np.add(v[:-2], v[2:], out=out[1:-1])
    np.add(v[-1], v[1], out=out[0])
    np.add(v[-2], v[0], out=out[-1])
    out[:, 1:] += v[:, :-1]
    out[:, 0] += v[:, -1]
    out[:, :-1] += v[:, 1:]
    out[:, -1] += v[:, 0]
    return out


def curvature_values(values: np.ndarray, h: float) -> np.ndarray:
    """Five-point periodic Laplacian of the array divided by 2*pi."""
    out = neighbor_sum(values)
    out -= 4.0 * values
    out /= h * h
    out /= 2.0 * np.pi
    return out


def ma_density(theta: ThetaDensity, u: GridField) -> GridField:
    """Density of the twisted Monge-Ampere operator, theta + curvature(u)."""
    if theta.grid.n != u.grid.n:
        raise ValueError("theta and u live on different grids")
    return GridField(u.grid, theta.density.values + curvature_values(u.values, u.grid.h))


def equation_defect(theta: ThetaDensity, phi: GridField, rho: np.ndarray) -> np.ndarray:
    """ma_density(theta, phi) - e^phi * rho: the exponential equation's defect."""
    return ma_density(theta, phi).values - np.exp(phi.values) * rho


@dataclass(frozen=True)
class Residual:
    """Worst value of a signed defect and where it sits; positive is violated."""

    value: float
    site: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol


def worst_residual(defect: np.ndarray, tol: float) -> Residual:
    """The largest entry of ``defect`` (first site on ties), judged against tol."""
    k = int(np.argmax(defect))
    site = tuple(int(i) for i in np.unravel_index(k, defect.shape))
    return Residual(float(defect.flat[k]), site, tol)


def is_theta_psh(theta: ThetaDensity, u: GridField, tol: float = 1e-10) -> Residual:
    """Check ``ma_density(theta, u) >= -tol`` at every node.

    The residual's value is minus the smallest density, at its site.
    """
    return worst_residual(-ma_density(theta, u).values, tol)


def integrate(u: GridField) -> float:
    """Trapezoidal (= midpoint, by periodicity) integral: h^2 * sum of values."""
    return float(u.values.sum()) * u.grid.h**2


def _minplus_pass(arr: np.ndarray, cost: np.ndarray) -> np.ndarray:
    # out[a, :] = min over periodic shifts s of cost[|s|] + arr[a + s, :].
    # A shift with cost[s] + min(arr) >= max(arr) in floating point gives a
    # candidate no smaller than arr[a, :] itself (rounding is monotone), so
    # only the shifts inside that radius are tried; the minimum is the same
    # as over every shift, bit for bit.
    n = arr.shape[0]
    radius = int(np.count_nonzero(cost[1:] + arr.min() < arr.max()))
    out = arr.copy()
    cand = np.empty_like(arr)
    for s in range(1, radius + 1):
        c = cost[s]
        np.add(arr[s:], c, out=cand[: n - s])
        np.add(arr[:s], c, out=cand[n - s :])
        np.minimum(out, cand, out=out)
        np.add(arr[: n - s], c, out=cand[s:])
        np.add(arr[n - s :], c, out=cand[:s])
        np.minimum(out, cand, out=out)
    return out


def inf_convolution(u: GridField, j: float) -> GridField:
    """Quadratic inf-convolution min_z { u(z) + j * d(x, z)^2 } on the torus.

    ``d`` is the periodic Euclidean distance.  The squared distance splits
    per axis, so the minimization is done in two one-dimensional passes.
    Each pass tries only the shifts whose cost j * d^2 stays below the
    spread max(u) - min(u) of its input; a farther point cannot beat the
    site itself.  The result is <= u, nondecreasing in j, and semiconcave
    with constant 2j.
    """
    if j <= 0:
        raise ValueError("penalty strength j must be positive")
    grid = u.grid
    cost = j * (grid.h * np.arange(grid.n // 2 + 1)) ** 2
    mid = _minplus_pass(u.values, cost)
    out = _minplus_pass(np.ascontiguousarray(mid.T), cost).T
    return GridField(grid, out)


def neighbor_table(n: int) -> np.ndarray:
    """Flat indices of the four periodic neighbours of every site.

    Row k of the (N*N, 4) int32 table lists the neighbours of row-major site
    k in the order i-1, i+1, j-1, j+1, the order in which
    :func:`neighbor_sum` adds them.
    """
    k = np.arange(n * n, dtype=np.int32).reshape(n, n)
    rolled = [np.roll(k, 1, 0), np.roll(k, -1, 0), np.roll(k, 1, 1), np.roll(k, -1, 1)]
    return np.stack(rolled, axis=-1).reshape(n * n, 4)


def _stencil_block(table: np.ndarray, weights: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """CSR block of a fixed-width stencil on the sites ``rows`` and ``cols``.

    Row k of the (M, w) ``table`` holds the flat indices of the w sites that
    site k's stencil reads, and the same row of ``weights`` their weights.
    Row r of the block holds the entries of site ``rows[r]`` whose column is
    in ``cols``, in the table's order, with each column renumbered by its
    position in ``cols``; entries in other columns are dropped.  The index
    arrays are int32.  Every block of the five-point stencil is built here:
    the colour gathers from :func:`neighbor_table`, for the whole grid
    (:func:`_colour_split`) or for a Newton call's masked sites, and the
    free-set and contact-boundary blocks of -C from its CSR arrays.
    """
    position = np.full(table.shape[0], -1, dtype=np.int32)
    position[cols] = np.arange(len(cols), dtype=np.int32)
    block = position.take(table.take(rows, axis=0))
    kept = block >= 0
    # the row counts one table column at a time: a sum along the short axis
    # runs numpy's inner loop w entries long, 6x slower at 65k rows
    counts = np.zeros(len(rows), dtype=np.int32)
    for column in kept.T:
        counts += column
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    data = weights.take(rows, axis=0)[kept]
    return sp.csr_matrix((data, block[kept], indptr), shape=(len(rows), len(cols)))


@lru_cache(maxsize=None)
def _colour_split(n: int):
    """Red-black split of an n x n grid and the sparse gathers between colours.

    ``order[c]`` holds the flat indices of the sites (i, j) with i + j = c
    (mod 2) in row-major order, red (c = 0) then black, so
    ``values.ravel()[order]`` stores a grid as two colour vectors.  Row r of
    gather c sums, with unit weights and in the order i-1, i+1, j-1, j+1,
    the four neighbours of colour c's r-th site, which all have the other
    colour: :func:`_stencil_block` of :func:`neighbor_table` drops none of
    them, so both gathers share one ``data`` and ``indptr``.  The PSOR
    half-sweeps and the Newton layer's red-black reduction share the cached
    split, so its arrays are read-only.
    """
    odd = np.arange(n) % 2 == 1
    colour = odd[:, None] ^ odd
    order = np.stack([np.flatnonzero(colour == c) for c in (0, 1)])
    table = neighbor_table(n)
    ones = np.broadcast_to(1.0, table.shape)
    red, black = (_stencil_block(table, ones, order[c], order[1 - c]) for c in (0, 1))
    black.data, black.indptr = red.data, red.indptr
    for arr in (order, red.data, red.indices, red.indptr, black.indices):
        arr.flags.writeable = False
    return order, (red, black)


def laplacian_matrix(n: int) -> sp.csc_matrix:
    """Sparse matrix of the five-point periodic Laplacian scaled by 1/h^2.

    Acts on row-major flattened (N*N,) vectors; ``laplacian_matrix(n) @ u.ravel()``
    equals ``(2*pi * curvature_values(u, h)).ravel()`` up to rounding.  Row k
    holds the sorted columns of k and its :func:`neighbor_table` row; the
    matrix is symmetric, so these are also its CSC arrays.  The Newton
    layer builds its cached -C from it.
    """
    site = np.arange(n * n, dtype=np.int32)[:, None]
    cols = np.concatenate([neighbor_table(n), site], axis=1)
    cols.sort(axis=1)
    data = np.where(cols == site, -4.0, 1.0) / (1.0 / n) ** 2
    indptr = np.arange(0, cols.size + 1, 5, dtype=np.int32)
    return sp.csc_matrix((data.ravel(), cols.ravel(), indptr), shape=(n * n, n * n))
