"""I_p pairings, capacities, and convergence certificates."""

import numpy as np
import pytest

import maenv.energy
from maenv import (
    GridField,
    ThetaDensity,
    TorusGrid,
    constant_field,
    is_theta_psh,
)
from maenv.energy import (
    cap_convergence_metric,
    capacity,
    energy_Ip,
    extremal_field,
    generalized_capacity,
    quasi_triangle_check,
)
from maenv.errors import InfeasibleMask, NonConvergence, NoSubsolution, OrderViolation
from maenv.fields import random_theta_psh, theta_cosine
from maenv.scenarios import _sandwich_masks
from maenv.torus import curvature_values

from oracles import (
    capacity_lp_reference,
    capacity_subset_ascent,
    ip_pairing_quadrature,
    quasi_triangle_reference,
)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(64)


@pytest.fixture(scope="module")
def theta_one(grid):
    return ThetaDensity(constant_field(grid, 1.0))


def random_psh(theta, rng, amp=0.04):
    """A smooth admissible field from a few low Fourier modes."""
    grid = theta.grid
    n = grid.n
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.zeros((n, n))
    for _ in range(3):
        kx, ky = rng.integers(-2, 3, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        vals += rng.uniform(-amp, amp) * np.cos(2 * np.pi * (kx * xx + ky * yy) + phase)
    worst = float(curvature_values(vals, grid.h).min())
    if worst < -0.9:  # keep a positive curvature margin against theta = 1
        vals *= 0.9 / -worst
    u = GridField(grid, vals)
    assert is_theta_psh(theta, u).passed
    return u


class TestIpPairing:
    def test_zero_on_the_diagonal(self, theta_one):
        rng = np.random.default_rng(1)
        u = random_psh(theta_one, rng)
        for p in (0.5, 1.0, 2.0):
            assert energy_Ip(theta_one, u, u, p) == 0.0

    def test_constant_gap_closed_form(self, grid, theta_one):
        rng = np.random.default_rng(2)
        u = random_psh(theta_one, rng)
        v = GridField(grid, u.values + 0.37)
        for p in (0.5, 1.0, 2.0):
            want = 2.0 * 0.37**p * theta_one.total_mass
            assert abs(energy_Ip(theta_one, u, v, p) - want) < 1e-12

    def test_symmetry_and_nonnegativity(self, theta_one):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = random_psh(theta_one, rng)
            v = random_psh(theta_one, rng)
            for p in (0.5, 1.0, 2.0):
                a = energy_Ip(theta_one, u, v, p)
                b = energy_Ip(theta_one, v, u, p)
                assert a == b
                assert a >= 0.0

    def test_quadrature_oracle(self, theta_one):
        rng = np.random.default_rng(5)
        u = random_psh(theta_one, rng)
        v = random_psh(theta_one, rng)
        for p in (1.0, 2.0):
            want = ip_pairing_quadrature(theta_one, u, v, p)
            assert abs(energy_Ip(theta_one, u, v, p) - want) < 1e-10

    def test_p_validation(self, theta_one):
        rng = np.random.default_rng(6)
        u = random_psh(theta_one, rng)
        with pytest.raises(ValueError):
            energy_Ip(theta_one, u, u, 0.0)


class TestQuasiTriangle:
    def test_equal_pair_passes_with_zero_lhs(self, theta_one):
        rng = np.random.default_rng(8)
        u = random_psh(theta_one, rng)
        w = random_psh(theta_one, rng)
        (res,) = quasi_triangle_check(theta_one, u, u, w, (1.0,))
        assert res.lhs == 0.0 and res.passed

    def test_anchor_at_one_endpoint(self, theta_one):
        rng = np.random.default_rng(9)
        u = random_psh(theta_one, rng)
        v = random_psh(theta_one, rng)
        (res,) = quasi_triangle_check(theta_one, u, v, u, (1.0,))
        assert res.passed
        assert res.c_test > 1.0

    def test_constant_matches_stated_formula(self, theta_one):
        rng = np.random.default_rng(10)
        u, v, w = (random_psh(theta_one, rng) for _ in range(3))
        p_values = (0.5, 1.0, 2.0)
        for p, res in zip(p_values, quasi_triangle_check(theta_one, u, v, w, p_values)):
            assert res.c_test == 2 ** (p + 1) + 3 * 2 ** (2 * p + 2)

    def test_random_suite(self, theta_one):
        rng = np.random.default_rng(12)
        headroom = 0.0
        for _ in range(60):
            u, v, w = (random_psh(theta_one, rng) for _ in range(3))
            for res in quasi_triangle_check(theta_one, u, v, w, (0.5, 1.0, 2.0)):
                assert res.passed
                assert res.lhs <= res.rhs
                headroom = max(headroom, res.ratio / res.c_test)
        # the proof constant should dominate with a wide margin
        assert headroom < 0.5

    @pytest.mark.parametrize("seed", [0, 3])
    def test_all_p_check_equals_the_per_p_check(self, seed):
        # one density, gap and density sum per field or pair serves every p
        grid = TorusGrid(32)
        theta = theta_cosine(grid, amplitude=0.5)
        rng = np.random.default_rng(seed)
        p_values = (0.5, 1.0, 2.0, 3.0)
        for _ in range(8):
            u, v, w = (random_theta_psh(theta, rng) for _ in range(3))
            together = quasi_triangle_check(theta, u, v, w, p_values)
            assert len(together) == len(p_values)
            for p, res in zip(p_values, together):
                (alone,) = quasi_triangle_check(theta, u, v, w, (p,))
                assert (res.lhs, res.rhs, res.ratio) == (alone.lhs, alone.rhs, alone.ratio)
                assert (res.c_test, res.passed) == (alone.c_test, alone.passed)
                assert (res.lhs, res.rhs, res.ratio) == quasi_triangle_reference(theta, u, v, w, p)
                assert res.lhs == energy_Ip(theta, u, v, p)


@pytest.fixture(scope="module")
def small():
    g = TorusGrid(32)
    return g, ThetaDensity(constant_field(g, 1.0))


@pytest.fixture(scope="module")
def small_with_point_mask(small):
    g, th = small
    mask = np.zeros((g.n, g.n), bool)
    mask[g.n // 2, g.n // 2] = True
    return g, th, mask


class TestCapacity:
    def test_empty_mask(self, small):
        g, th = small
        res = capacity(th, np.zeros((g.n, g.n), bool))
        assert res.value == 0.0

    def test_full_grid_saturates_total_mass(self, small):
        g, th = small
        res = capacity(th, np.ones((g.n, g.n), bool), mode="exact")
        assert abs(res.value - th.total_mass) < 1e-9

    def test_fat_stripe_still_saturates(self, small):
        # a competitor can afford curvature mass 1 on a half-width stripe
        # while staying within the unit box, so nothing is lost
        g, th = small
        x = np.arange(g.n) / g.n
        stripe = ((x[:, None] >= 0.25) & (x[:, None] < 0.75)) & np.ones((1, g.n), bool)
        res = capacity(th, stripe, mode="exact")
        assert abs(res.value - th.total_mass) < 1e-9

    def test_single_site_is_strict_and_matches_witness(self, small):
        g, th = small
        mask = np.zeros((g.n, g.n), bool)
        mask[g.n // 2, g.n // 2] = True
        exact = capacity(th, mask, mode="exact")
        assert exact.value < th.total_mass - 0.1
        lower = capacity(th, mask, mode="lower_bound")
        assert abs(exact.value - lower.value) < 1e-8
        # the witness against the box constraints
        v = extremal_field(th)
        assert (lower.witness.values <= v.values + 1e-9).all()
        assert (lower.witness.values >= v.values - 1.0 - 1e-9).all()
        mass = 1.0 + curvature_values(lower.witness.values, g.h)
        assert abs(float((mass[mask]).sum()) * g.h**2 - lower.value) < 1e-12

    def test_multi_start_ascent_agrees(self, small):
        g, th = small
        mask = np.zeros((g.n, g.n), bool)
        mask[g.n // 2, g.n // 2] = True
        exact = capacity(th, mask, mode="exact")
        finals = capacity_subset_ascent(th, mask, seeds=10)
        assert max(finals) - min(finals) < 1e-6
        assert abs(max(finals) - exact.value) < 1e-6

    def test_monotone_and_subadditive(self, small):
        g, th = small
        rng = np.random.default_rng(13)
        for _ in range(3):
            e1 = rng.random((g.n, g.n)) < 0.02
            e2 = rng.random((g.n, g.n)) < 0.02
            if not e1.any() or not e2.any():
                continue
            c1 = capacity(th, e1, mode="exact").value
            c2 = capacity(th, e2, mode="exact").value
            cu = capacity(th, e1 | e2, mode="exact").value
            assert cu >= max(c1, c2) - 1e-9
            assert cu <= c1 + c2 + 1e-9

    @pytest.mark.parametrize("shape", ["disc", "site"])
    def test_exact_mode_certifies_at_n256(self, shape):
        # the dual point is built on the envelope's exact contact set, which
        # keeps the duality gap at rounding level on large grids
        g = TorusGrid(256)
        th = ThetaDensity(constant_field(g, 1.0))
        if shape == "disc":
            x, y = g.coords()
            mask = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.02**2
        else:
            mask = np.zeros((g.n, g.n), bool)
            mask[g.n // 2, g.n // 2] = True
        res = capacity(th, mask, mode="exact")
        assert abs(res.gap) <= 1e-9
        assert 0.0 < res.value < th.total_mass

    def test_mask_shape_mismatch(self, small):
        g, th = small
        with pytest.raises(InfeasibleMask):
            capacity(th, np.zeros((g.n + 1, g.n), bool))


class TestGeneralizedCapacity:
    def test_unit_band_reduces_to_plain_capacity(self, small_with_point_mask):
        g, th, mask = small_with_point_mask
        v = extremal_field(th)
        low = GridField(g, v.values - 1.0)
        plain = capacity(th, mask, mode="exact")
        gen = generalized_capacity(th, low, v, mask, mode="exact")
        assert abs(gen.value - plain.value) < 1e-9

    def test_band_width_sandwich(self, small_with_point_mask):
        g, th, mask = small_with_point_mask
        v = extremal_field(th)
        plain = capacity(th, mask, mode="exact").value
        for t in (1.0, 2.0, 5.0):
            low = GridField(g, v.values - t)
            wide = generalized_capacity(th, low, v, mask, mode="exact").value
            assert wide >= plain - 1e-8
            assert wide <= t * plain + 1e-8

    def test_nested_masks_monotone(self, small_with_point_mask):
        g, th, _ = small_with_point_mask
        v = extremal_field(th)
        low = GridField(g, v.values - 1.0)
        e1 = np.zeros((g.n, g.n), bool)
        e1[10:12, 10:12] = True
        e2 = e1.copy()
        e2[10:16, 10:16] = True
        c1 = generalized_capacity(th, low, v, e1, mode="exact").value
        c2 = generalized_capacity(th, low, v, e2, mode="exact").value
        assert c2 >= c1 - 1e-9

    def test_crossed_bounds_rejected(self, small_with_point_mask):
        g, th, mask = small_with_point_mask
        v = extremal_field(th)
        high = GridField(g, v.values - 2.0)
        with pytest.raises(OrderViolation):
            generalized_capacity(th, GridField(g, v.values), high, mask)

    def test_empty_mask(self, small_with_point_mask):
        g, th, _ = small_with_point_mask
        v = extremal_field(th)
        low = GridField(g, v.values - 1.0)
        res = generalized_capacity(th, low, v, np.zeros((g.n, g.n), bool))
        assert res.value == 0.0


def site_masks(n):
    """One site, and two sites far apart: sets whose capacity stays below the total mass."""
    one = np.zeros((n, n), bool)
    one[n // 2, n // 2] = True
    two = one.copy()
    two[n // 4, n // 3] = True
    return [one, two]


class TestExactCapacityMatchesLp:
    """The certified exact mode against the capacity LP solved by HiGHS."""

    @staticmethod
    def assert_matches(theta, low, high, mask):
        got = generalized_capacity(theta, GridField(theta.grid, low), GridField(theta.grid, high), mask)
        want = capacity_lp_reference(theta, mask, low, high)
        assert abs(got.value - want.value) <= 1e-9
        assert abs(got.gap) <= 1e-9

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_sandwich_and_site_masks(self, n):
        grid = TorusGrid(n)
        theta = theta_cosine(grid)
        v = extremal_field(theta)
        masks = _sandwich_masks(grid, 4, np.random.default_rng(n)) + site_masks(n)
        for mask in masks:
            for t in (1.0, 2.0, 5.0):
                self.assert_matches(theta, v.values - t, v.values, mask)

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_random_admissible_lows_on_a_cosine_density(self, n):
        # a theta-psh field <= 0 lies below V_theta, so it is an admissible low
        grid = TorusGrid(n)
        theta = theta_cosine(grid, amplitude=0.8)
        v = extremal_field(theta)
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            u = random_theta_psh(theta, rng).values
            low = u - u.max() - rng.uniform(0.0, 0.5)
            mask = rng.random((n, n)) < rng.uniform(0.01, 0.2)
            self.assert_matches(theta, low, v.values, mask)

    def test_non_admissible_low_raises(self, small):
        # the lower bound spikes at the centre of a 3 x 3 set: there the
        # envelope is at most the mean of its four neighbours, which are at
        # most V - 1, plus 2 pi h^2 theta / 4, so it falls under the bound
        g, th = small
        v = extremal_field(th)
        mask = np.zeros((g.n, g.n), bool)
        mask[9:12, 9:12] = True
        low = v.values - 1.0
        low[10, 10] = v.values[10, 10] - 0.01
        with pytest.raises(NoSubsolution):
            generalized_capacity(th, GridField(g, low), v, mask)

    def test_gap_above_tolerance_raises(self, small_with_point_mask, monkeypatch):
        # without the harmonic-measure solve the dual point is y = 0, still
        # feasible but loose: its gap is a valid bound far above tolerance
        g, th, mask = small_with_point_mask
        monkeypatch.setattr(maenv.energy, "_free_set_solve", lambda u, theta, h, free: (u, 0))
        with pytest.raises(NonConvergence) as info:
            capacity(th, mask)
        assert info.value.residual > 1e-9
        assert info.value.residual == info.value.best.gap


class TestConvergenceInCapacity:
    def test_constant_sequence_gives_zeros(self, grid, theta_one):
        rng = np.random.default_rng(14)
        u = random_psh(theta_one, rng)
        vals = cap_convergence_metric(theta_one, [u, u, u], u, eps=1e-2)
        assert vals == [0.0, 0.0, 0.0]

    def test_shrinking_shift_crosses_the_threshold(self, grid, theta_one):
        rng = np.random.default_rng(15)
        u = random_psh(theta_one, rng)
        seq = [GridField(grid, u.values + 1.0 / j) for j in (10, 100, 1000)]
        vals = cap_convergence_metric(theta_one, seq, u, eps=5e-2)
        assert vals[0] > 0.0
        assert vals[1] == 0.0 and vals[2] == 0.0
