"""Pointwise viscosity checks and the supersolution-to-envelope pipeline."""

import numpy as np
import pytest

from maenv import (
    GridField,
    ThetaDensity,
    TorusGrid,
    constant_field,
    field_from_function,
    solve_ma_exponential,
)
from maenv.equations import supersolution_check
from maenv.errors import InputNotSupersolution
from maenv.torus import MeasureDensity
from maenv.viscosity import (
    check_supersolution_visc,
    mass_bound_check,
    supersolution_envelope_pipeline,
)


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(64)
    theta = ThetaDensity(constant_field(grid, 1.0))
    f = field_from_function(grid, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    phi, report = solve_ma_exponential(theta, MeasureDensity(f))
    assert report.converged
    return grid, theta, f, phi


class TestSupersolutionCheck:
    def test_exact_solution_has_zero_margin(self, setup):
        grid, theta, f, phi = setup
        rep, checked_fraction = check_supersolution_visc(theta, phi, f)
        assert rep.passed
        assert abs(rep.value) < 1e-10
        assert checked_fraction == 1.0

    def test_shift_up_passes_with_slack(self, setup):
        grid, theta, f, phi = setup
        rep, _ = check_supersolution_visc(theta, GridField(grid, phi.values + 1.0), f)
        assert rep.passed
        assert rep.value < -0.5

    def test_shift_down_fails(self, setup):
        grid, theta, f, phi = setup
        rep, _ = check_supersolution_visc(theta, GridField(grid, phi.values - 1.0), f)
        assert not rep.passed
        assert rep.value > 0.5

    def test_min_stability(self, setup):
        grid, theta, f, phi = setup
        x = np.arange(grid.n) / grid.n
        v1 = GridField(grid, phi.values + 0.30 + 0.02 * np.cos(2 * np.pi * x)[:, None])
        v2 = GridField(grid, phi.values + 0.25 + 0.02 * np.sin(2 * np.pi * x)[None, :])
        assert check_supersolution_visc(theta, v1, f)[0].passed
        assert check_supersolution_visc(theta, v2, f)[0].passed
        vm = GridField(grid, np.minimum(v1.values, v2.values))
        rep, _ = check_supersolution_visc(theta, vm, f)
        assert rep.passed

    def test_agrees_with_pluripotential_form_on_smooth_fields(self, setup):
        grid, theta, f, phi = setup
        mu = MeasureDensity(f)
        for shift in (0.2, -0.2):
            v = GridField(grid, phi.values + shift)
            visc = check_supersolution_visc(theta, v, f)[0].passed
            pluri = supersolution_check(theta, v, mu, 1e-8).passed
            assert visc == pluri == (shift > 0)


class TestPipeline:
    def test_exact_solution_is_a_fixed_point(self, setup):
        grid, theta, f, phi = setup
        res = supersolution_envelope_pipeline(theta, phi, f)
        assert np.abs(res.solution.u.values - phi.values).max() == 0.0
        assert abs(res.residual) < 1e-10

    def test_min_of_two_smooth_supersolutions(self):
        # the kinked minimum enters as a viscosity supersolution and the
        # envelope must come out a pluripotential one; the signed residual
        # stays below tolerance and tightens under refinement
        residuals = {}
        for n in (64, 128):
            grid = TorusGrid(n)
            theta = ThetaDensity(constant_field(grid, 1.0))
            f = field_from_function(grid, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
            phi, _ = solve_ma_exponential(theta, MeasureDensity(f))
            x = np.arange(n) / n
            v1 = GridField(grid, phi.values + 0.30 + 0.02 * np.cos(2 * np.pi * x)[:, None])
            v2 = GridField(grid, phi.values + 0.25 + 0.02 * np.sin(2 * np.pi * x)[None, :])
            vm = GridField(grid, np.minimum(v1.values, v2.values))
            res = supersolution_envelope_pipeline(theta, vm, f)
            assert res.residual <= 1e-3 * theta.total_mass
            residuals[n] = abs(res.residual)
        assert residuals[128] <= residuals[64] + 1e-8

    def test_large_constant_is_returned_as_is(self, setup):
        grid, theta, f, phi = setup
        c = 2.0
        assert (np.exp(c) * f.values >= theta.density.values).all()
        res = supersolution_envelope_pipeline(theta, constant_field(grid, c), f)
        assert np.abs(res.solution.u.values - c).max() == 0.0
        assert res.residual <= 0.0

    def test_rejects_non_supersolution_input(self, setup):
        grid, theta, f, phi = setup
        with pytest.raises(InputNotSupersolution):
            supersolution_envelope_pipeline(theta, GridField(grid, phi.values - 1.0), f)


class TestMassBound:
    def test_threshold_cases(self, setup):
        grid, theta, f, phi = setup
        V = theta.total_mass
        assert mass_bound_check(theta, constant_field(grid, V))
        assert not mass_bound_check(theta, constant_field(grid, V / 2))
        assert mass_bound_check(theta, constant_field(grid, 2 * V))

    def test_heavy_data_admits_a_supersolution(self, setup):
        grid, theta, f, phi = setup
        f2 = constant_field(grid, 2.0 * theta.total_mass)
        psi, _ = solve_ma_exponential(theta, MeasureDensity(f2))
        assert check_supersolution_visc(theta, psi, f2)[0].passed

    def test_light_data_defeats_a_random_search(self):
        # integral(f) < V: the e^u-free inequality max(theta+curv, 0) <= f
        # cannot hold anywhere near globally, and no random candidate passes
        n = 32
        grid = TorusGrid(n)
        theta = ThetaDensity(constant_field(grid, 1.0))
        f_half = constant_field(grid, 0.5)
        assert not mass_bound_check(theta, f_half)
        x = np.arange(n) / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        for seed in range(50):
            rng = np.random.default_rng(seed)
            vals = np.zeros((n, n))
            for _ in range(3):
                kx, ky = rng.integers(-2, 3, size=2)
                phase = rng.uniform(0, 2 * np.pi)
                vals += rng.uniform(-0.5, 0.5) * np.cos(
                    2 * np.pi * (kx * xx + ky * yy) + phase
                )
            vals += rng.uniform(-2.0, 2.0)
            rep, _ = check_supersolution_visc(
                theta, GridField(grid, vals), f_half, exponential=False
            )
            assert not rep.passed
