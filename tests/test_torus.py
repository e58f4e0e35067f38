"""Grid, field, curvature, regularization, and residual behavior."""

import numpy as np
import pytest
import scipy.sparse as sp

from maenv import (
    GridField,
    MeasureDensity,
    ThetaDensity,
    TorusGrid,
    constant_field,
    curvature_values,
    field_from_function,
    inf_convolution,
    integrate,
    is_theta_psh,
    ma_density,
    theta_cosine,
)
from maenv._newton import _curvature_operator
from maenv.fields import _stencil_max, random_smooth_field
from maenv.torus import _colour_split, _stencil_block, laplacian_matrix, neighbor_sum, neighbor_table

from oracles import (
    inf_convolution_reference,
    laplacian_matrix_reference,
    moreau_of_step,
    random_smooth_field_reference,
    roll_neighbor_sum,
)


def discrete_cos_curvature_factor(n: int) -> float:
    """Exact eigenvalue of the scaled five-point stencil on cos(2 pi x)."""
    h = 1.0 / n
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * h)) / (2.0 * np.pi * h * h)


class TestGridAndFields:
    def test_grid_validation(self):
        TorusGrid(8)
        with pytest.raises(ValueError):
            TorusGrid(7)
        with pytest.raises(ValueError):
            TorusGrid(6)

    def test_field_requires_finite_matching_values(self):
        grid = TorusGrid(16)
        with pytest.raises(ValueError):
            GridField(grid, np.full((16, 16), np.nan))
        with pytest.raises(ValueError):
            GridField(grid, np.zeros((8, 8)))

    def test_fields_are_immutable(self):
        grid = TorusGrid(16)
        u = constant_field(grid, 1.0)
        with pytest.raises(ValueError):
            u.values[0, 0] = 2.0

    def test_density_validation(self):
        grid = TorusGrid(16)
        with pytest.raises(ValueError):
            ThetaDensity(constant_field(grid, -1.0))  # total mass must be positive
        with pytest.raises(ValueError):
            MeasureDensity(constant_field(grid, -0.5))  # must be nonnegative
        with pytest.raises(ValueError):
            MeasureDensity(constant_field(grid, 0.0))  # must carry some mass

    def test_field_from_function_matches_coords(self):
        grid = TorusGrid(32)
        u = field_from_function(grid, lambda x, y: x + 10.0 * y)
        x, y = grid.coords()
        assert np.array_equal(u.values, x + 10.0 * y)


class TestCurvature:
    def test_cosine_curvature_approaches_continuum(self):
        # second derivative of eps*cos(2 pi x) over 2 pi is -2 pi eps cos(2 pi x)
        grid = TorusGrid(256)
        x, _ = grid.coords()
        eps = 0.1
        got = curvature_values(eps * np.cos(2.0 * np.pi * x), grid.h)
        want = -2.0 * np.pi * eps * np.cos(2.0 * np.pi * x)
        assert np.abs(got - want).max() < 1e-3

    def test_cosine_curvature_exact_stencil_eigenvalue(self):
        grid = TorusGrid(64)
        x, _ = grid.coords()
        eps = 0.3
        got = curvature_values(eps * np.cos(2.0 * np.pi * x), grid.h)
        want = -discrete_cos_curvature_factor(64) * eps * np.cos(2.0 * np.pi * x)
        assert np.abs(got - want).max() < 1e-12

    def test_ma_density_of_cosine(self):
        grid = TorusGrid(256)
        x, _ = grid.coords()
        eps = 0.1
        theta = theta_cosine(grid)
        ma = ma_density(theta, GridField(grid, eps * np.cos(2.0 * np.pi * x)))
        want = 1.0 - 2.0 * np.pi * eps * np.cos(2.0 * np.pi * x)
        assert np.abs(ma.values - want).max() < 1e-3

    def test_ma_mass_is_exactly_total_theta_mass(self):
        grid = TorusGrid(64)
        rng = np.random.default_rng(0)
        theta = theta_cosine(grid, amplitude=0.7)
        u = GridField(grid, rng.standard_normal((64, 64)))
        assert abs(integrate(ma_density(theta, u)) - theta.total_mass) < 1e-12

    def test_laplacian_matrix_matches_stencil_and_is_symmetric(self):
        n = 32
        grid = TorusGrid(n)
        lap = laplacian_matrix(n)
        assert abs(lap - lap.T).max() == 0.0
        assert np.abs(lap @ np.ones(n * n)).max() == 0.0
        rng = np.random.default_rng(1)
        u = GridField(grid, rng.standard_normal((n, n)))
        via_matrix = (lap @ u.values.ravel()).reshape(n, n) / (2.0 * np.pi)
        assert np.abs(via_matrix - curvature_values(u.values, grid.h)).max() < 1e-12


class TestThetaPsh:
    def test_zero_is_admissible_for_unit_density(self):
        grid = TorusGrid(64)
        theta = theta_cosine(grid)
        report = is_theta_psh(theta, constant_field(grid, 0.0), tol=0.0)
        assert report.passed
        assert report.value <= 0.0

    def test_large_cosine_is_rejected(self):
        # curvature magnitude 2 pi eps exceeds the unit density for eps = 0.2
        grid = TorusGrid(128)
        x, _ = grid.coords()
        theta = theta_cosine(grid)
        report = is_theta_psh(theta, GridField(grid, 0.2 * np.cos(2.0 * np.pi * x)))
        assert not report.passed
        assert report.value > 0.0

    def test_sign_changing_density_rejects_zero(self):
        grid = TorusGrid(64)
        theta = theta_cosine(grid, amplitude=2.0)
        report = is_theta_psh(theta, constant_field(grid, 0.0), tol=0.0)
        assert not report.passed
        i, j = report.site
        assert theta.density.values[i, j] < 0.0


class TestInfConvolution:
    def test_matches_closed_form_on_step(self):
        grid = TorusGrid(128)
        x, _ = grid.coords()
        x0, x1 = 0.375, 0.625
        u = GridField(grid, np.where((x >= x0) & (x < x1), -1.0, 0.0))
        # distance to the sampled set, whose rightmost site is x1 - h
        right = x1 - grid.h
        d = np.maximum.reduce([x0 - x, x - right, np.zeros_like(x)])
        d = np.minimum(d, 1.0 - (right - x0) - d)
        for j in (16.0, 64.0):
            got = inf_convolution(u, j).values
            assert np.abs(got - moreau_of_step(d, j)).max() < 1e-12

    def test_below_input_monotone_in_j_and_contractive(self):
        grid = TorusGrid(48)
        rng = np.random.default_rng(3)
        u = GridField(grid, rng.standard_normal((48, 48)))
        v = GridField(grid, u.values + rng.uniform(-0.3, 0.3, (48, 48)))
        cu16, cu64 = inf_convolution(u, 16.0), inf_convolution(u, 64.0)
        assert (cu16.values <= u.values + 1e-14).all()
        assert (cu16.values <= cu64.values + 1e-14).all()
        gap = np.abs(inf_convolution(v, 16.0).values - cu16.values).max()
        assert gap <= np.abs(u.values - v.values).max() + 1e-14

    def test_rejects_nonpositive_strength(self):
        grid = TorusGrid(16)
        with pytest.raises(ValueError):
            inf_convolution(constant_field(grid, 0.0), 0.0)

    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("amplitude", [0.01, 2.0, 50.0])
    @pytest.mark.parametrize("j_power", [0, 1, 2])
    def test_matches_all_shift_reference_bit_for_bit(self, n, amplitude, j_power):
        rng = np.random.default_rng(n)
        u = GridField(TorusGrid(n), amplitude * rng.standard_normal((n, n)))
        j = float(n**j_power)
        want = inf_convolution_reference(u.values, j)
        assert np.array_equal(inf_convolution(u, j).values, want)

    def test_search_radius_reaching_half_the_grid(self):
        # the largest cost, 0.9 * (1/2)^2, stays below the spread 1, so the
        # first pass tries every shift up to n/2; row n/2 takes row 0's value
        n = 32
        grid = TorusGrid(n)
        values = np.zeros((n, n))
        values[0, :] = -1.0
        u = GridField(grid, values)
        got = inf_convolution(u, 0.9).values
        assert np.array_equal(got, inf_convolution_reference(values, 0.9))
        assert got[n // 2, 0] == -1.0 + 0.9 * 0.25


class TestNeighborSum:
    @pytest.mark.parametrize("n", [8, 10, 64])
    def test_matches_roll_reference_bit_for_bit(self, n):
        values = np.random.default_rng(n).standard_normal((n, n))
        assert np.array_equal(neighbor_sum(values), roll_neighbor_sum(values))

    def test_noncontiguous_view(self):
        base = np.random.default_rng(5).standard_normal((40, 36))
        view = base[::2, 2:][:, ::2].T[:, :16]
        assert not view.flags.c_contiguous
        assert np.array_equal(neighbor_sum(view), roll_neighbor_sum(view))


class TestNeighborTable:
    @pytest.mark.parametrize("n", [8, 10, 18, 64])
    def test_gather_sums_to_neighbor_sum_bit_for_bit(self, n):
        values = np.random.default_rng(n).standard_normal((n, n))
        gathered = values.ravel()[neighbor_table(n)]
        total = gathered[:, 0] + gathered[:, 1] + gathered[:, 2] + gathered[:, 3]
        assert np.array_equal(total, neighbor_sum(values).ravel())

    @pytest.mark.parametrize("n", [8, 10, 18, 32, 128])
    def test_laplacian_matrix_equals_kronecker_assembly(self, n):
        lap, ref = laplacian_matrix(n), laplacian_matrix_reference(n)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lap, name), getattr(ref, name))
            assert getattr(lap, name).dtype == getattr(ref, name).dtype

    @pytest.mark.parametrize("n", [8, 64])
    def test_stencil_max_matches_roll_maxima(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, n))
        values[rng.random((n, n)) < 0.3] = 0.0
        values[rng.random((n, n)) < 0.3] = -0.0
        expected = values.copy()
        for axis in (0, 1):
            for shift in (1, -1):
                np.maximum(expected, np.roll(values, shift, axis=axis), out=expected)
        got = _stencil_max(values)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def stencil_sites(n, kind):
    """Sorted flat sites of an n x n grid: the whole grid, a strip, a disc, a random share or one site."""
    x, y = TorusGrid(n).coords()
    if kind == "full":
        mask = np.ones((n, n), bool)
    elif kind == "strip":
        mask = (x >= 0.25) & (x < 0.375)
    elif kind == "disc":
        mask = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.09
    elif kind == "site":
        mask = np.zeros((n, n), bool)
        mask[n // 3, n // 2] = True
    else:
        mask = np.random.default_rng(n + int(kind * 100)).random((n, n)) < kind
    return np.flatnonzero(mask)


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got.shape == want.shape


class TestStencilBlock:
    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("kind", ["full", "strip", "disc", 0.05, 0.3, 0.6, 0.9, "site"])
    def test_curvature_block_equals_scipy_indexing(self, n, kind):
        # the block of -C's five-entry rows on a set of sites is scipy's
        # fancy-indexed block, array for array
        neg = _curvature_operator(n)
        sites = stencil_sites(n, kind)
        got = _stencil_block(neg.indices.reshape(-1, 5), neg.data.reshape(-1, 5), sites, sites)
        assert_same_csr(got, neg[sites][:, sites])

    @pytest.mark.parametrize("n", [8, 32])
    def test_rows_and_columns_on_different_sites(self, n):
        neg = _curvature_operator(n)
        rng = np.random.default_rng(n)
        rows = np.flatnonzero(rng.random(n * n) < 0.4)
        cols = np.flatnonzero(rng.random(n * n) < 0.7)
        got = _stencil_block(neg.indices.reshape(-1, 5), neg.data.reshape(-1, 5), rows, cols)
        assert_same_csr(got, neg[rows][:, cols])

    @pytest.mark.parametrize("n", [8, 10, 32, 64])
    def test_colour_gathers_equal_the_position_gather(self, n):
        # the construction the colour gathers had before the block builder:
        # each colour's neighbours renumbered by their position in the other
        # colour, one shared data and indptr
        order, gathers = _colour_split(n)
        rows = order.shape[1]
        position = np.empty(n * n, dtype=np.int32)
        position[order] = np.arange(rows, dtype=np.int32)
        data = np.ones(4 * rows)
        indptr = np.arange(0, 4 * rows + 1, 4, dtype=np.int32)
        for c in (0, 1):
            idx = position.take(neighbor_table(n).take(order[c], axis=0))
            want = sp.csr_matrix((data, idx.ravel(), indptr), shape=(rows, rows))
            assert_same_csr(gathers[c], want)
        assert gathers[1].data is gathers[0].data and gathers[1].indptr is gathers[0].indptr


def test_amplitudes_are_keyword_only():
    # a stale positional base (or modes) argument fails instead of being read as the amplitude
    grid = TorusGrid(8)
    with pytest.raises(TypeError):
        theta_cosine(grid, 1.0)
    with pytest.raises(TypeError):
        random_smooth_field(grid, np.random.default_rng(0), 3)
    assert theta_cosine(grid, amplitude=0.5).density.values.mean() == pytest.approx(1.0)


class TestRandomSmoothFieldMatchesLoop:
    # n = 8, the smallest grid, holds the rows kx % 8 of kx = -3..3 apart
    @pytest.mark.parametrize("n", [8, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_same_field_and_stream(self, n, seed):
        grid = TorusGrid(n)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for amplitude in (1.0, 0.5):
            u = random_smooth_field(grid, rng, amplitude=amplitude)
            want = random_smooth_field_reference(grid, ref_rng, 3, amplitude)
            assert np.array_equal(u.values, want.values)
        assert np.array_equal(rng.standard_normal(3), ref_rng.standard_normal(3))
