"""Axis, slope-constrained convex envelopes, and radial measure extraction."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.ndimage import median_filter

from maenv import (
    RadialProfile,
    TAxis,
    ball_step_obstacle,
    constrained_convex_envelope,
    fs_potential,
    local_envelope_ball,
    orthogonality_defect_radial,
    radial_envelope,
    radial_ma_mass,
)
from maenv.radial import _lower_hull, _window_median
from maenv.scenarios import parse_config_text, run_scenario

from oracles import cutting_plane_envelope, halfplane_log1pexp, lower_hull_reference


def sigma(t):
    return np.exp(t) / (1.0 + np.exp(t))


class TestAxisAndProfile:
    def test_axis_validation(self):
        TAxis(m=4096)
        with pytest.raises(ValueError):
            TAxis(m=32)  # too coarse

    def test_extent_is_fixed(self):
        axis = TAxis(m=128)
        assert (axis.ts[0], axis.ts[-1] + axis.dt) == (-40.0, 40.0)
        with pytest.raises(TypeError):
            TAxis(-10.0, 10.0, 128)  # the extent is no longer a field

    def test_zero_is_sampled_exactly_when_m_is_even(self):
        # the samples are those of the former symmetric-axis form, so the
        # config's "m is even" rule accepts exactly the axes it accepted
        for m in range(64, 20001, 7):
            axis = TAxis(m=m)
            old = (np.arange(m) - m * 40.0 / 80.0) * (80.0 / m)
            assert np.array_equal(axis.ts, old)
            assert (0.0 in axis.ts) == (m % 2 == 0)

    def test_zero_is_a_sample_where_the_offset_form_misses_it(self):
        # t_min + k*dt rounds past 0.0 at k = 1263 for m = 2526
        axis = TAxis(m=2526)
        assert 0.0 in axis.ts
        assert 0.0 not in axis.t_min + axis.dt * np.arange(axis.m)

    def test_samples_keep_the_offset_form_at_a_power_of_two(self):
        axis = TAxis(m=4096)
        assert np.array_equal(axis.ts, axis.t_min + axis.dt * np.arange(axis.m))

    def test_profile_rejects_out_of_range_slopes(self):
        axis = TAxis(m=128)
        with pytest.raises(ValueError):
            RadialProfile(axis, 0.6 * axis.ts)  # slope above 1/2
        with pytest.raises(ValueError):
            RadialProfile(axis, -0.1 * axis.ts)  # decreasing

    def test_profile_rejects_nonconvex_values(self):
        axis = TAxis(m=128)
        bump = 0.25 * axis.ts + 0.2 * np.sin(axis.ts)
        with pytest.raises(ValueError):
            RadialProfile(axis, bump)

    def test_reference_potential_value_and_slopes(self):
        axis = TAxis()
        rho = fs_potential(axis)
        idx = int(round((10.0 - axis.t_min) / axis.dt))
        assert axis.ts[idx] == 10.0
        assert abs(rho.values[idx] - halfplane_log1pexp(10.0)) < 1e-12
        assert abs(rho.values[idx] - 5.0000227) < 1e-7
        s = rho.slopes
        assert (s >= 0.0).all() and (s <= 0.5).all()


class TestConstrainedConvexEnvelope:
    def test_absolute_value_closed_form(self):
        ts = TAxis().ts  # contains t = 0 exactly
        env = constrained_convex_envelope(ts, np.abs(ts))
        got = env(ts)
        assert np.abs(got - np.maximum(0.0, ts / 2.0)).max() < 1e-12
        oracle = cutting_plane_envelope(ts, np.abs(ts), n_slopes=2049)
        assert np.abs(got - oracle).max() < 1e-9  # both slopes 0, 1/2 on the grid

    def test_random_data_against_cutting_plane_oracle(self):
        rng = np.random.default_rng(0)
        ts = np.linspace(-40.0, 40.0, 2048)
        for _ in range(5):
            knots = np.sort(rng.uniform(-35.0, 35.0, 6))
            g = np.interp(ts, knots, np.cumsum(rng.uniform(-3.0, 3.0, 6)))
            env = constrained_convex_envelope(ts, g)
            got = env(ts)
            assert (got <= g + 1e-12).all()
            slopes = np.diff(got) / np.diff(ts)
            assert slopes.min() >= -1e-9 and slopes.max() <= 0.5 + 1e-9
            assert (np.diff(slopes) >= -1e-9).all()  # convex
            oracle = cutting_plane_envelope(ts, g, n_slopes=2049)
            assert (got >= oracle - 1e-9).all()
            assert np.abs(got - oracle).max() < 1e-2  # oracle tight to slope spacing
            again = constrained_convex_envelope(ts, got)
            assert np.abs(again(ts) - got).max() < 1e-10  # idempotent

    def test_hull_scan_matches_numpy_scalar_reference(self):
        # 4096 samples; the integer-valued piecewise-linear profiles on the
        # integer axis have exactly collinear runs, where the scan pops on
        # equality, and the others exercise rounding in the orientation test
        rng = np.random.default_rng(7)
        ts = TAxis(m=4096).ts
        ints = np.arange(-2048.0, 2048.0)
        knots = np.sort(rng.choice(ints, 8, replace=False))
        profiles = [
            (ts, 0.5 * np.logaddexp(0.0, ts)),
            (ts, np.abs(ts)),
            (ts, np.cumsum(rng.normal(size=ts.size))),
            (ts, 0.01 * ts**2 + rng.uniform(-1.0, 1.0, ts.size)),
            (ints, np.abs(ints)),
            (ints, np.interp(ints, knots, rng.integers(-50, 50, knots.size).astype(float))),
            (ints, np.maximum(3.0 * ints, -2.0 * ints) // 7),
        ]
        for xs, gs in profiles:
            got = _lower_hull(xs, gs)
            want = lower_hull_reference(xs, gs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # collinear runs keep only their end points
        assert np.array_equal(_lower_hull(ints, np.abs(ints)), [0, 2048, 4095])


class TestRadialMeasure:
    def test_zero_obstacle_reproduces_reference_measure(self):
        # envelope of 0 is the reference potential; its slope measure has
        # cumulative sigma(t)^n, no atoms, and unit total mass
        axis = TAxis()
        prof = radial_envelope(np.zeros(axis.m), axis)
        rho = fs_potential(axis)
        assert np.abs(prof.values - rho.values).max() < 1e-10
        for n in (1, 2, 3):
            meas = radial_ma_mass(prof, n)
            assert meas.atoms == []
            mid = sigma(axis.ts - axis.dt / 2.0) ** n
            assert np.abs(meas.cumulative - mid).max() < 1e-5
            assert np.abs(meas.cumulative - sigma(axis.ts) ** n).max() < 1e-2
            assert abs(meas.total_mass - 1.0) < 1e-6

            def density(t, n=n):
                return n * sigma(t) ** (n - 1) * sigma(t) * (1.0 - sigma(t))

            q, _ = quad(density, axis.t_min, axis.t_max, limit=200)
            assert abs(meas.total_mass - q) < 1e-6

    def test_ball_obstacle_boundary_atom(self):
        # slope jumps from sigma(0)/2 = 1/4 to the cap 1/2 at t = 0, so the
        # cumulative (2s)^n jumps from 2^-n to 1: an atom of mass 1 - 2^-n
        axis = TAxis()
        _, h_lsc = ball_step_obstacle(axis)
        prof = radial_envelope(h_lsc, axis)
        for n in (1, 2, 3):
            meas = radial_ma_mass(prof, n)
            assert len(meas.atoms) == 1
            t_atom, mass = meas.atoms[0]
            assert abs(t_atom) <= axis.dt
            assert abs(mass - (1.0 - 2.0**-n)) < 1e-6
            i_atom = int(round((t_atom - axis.t_min) / axis.dt))
            assert abs(meas.cumulative[i_atom - 1] - 2.0**-n) < 1e-2

    def test_orthogonality_defect_vanishes_for_continuous_obstacles(self):
        axis = TAxis()
        zero = np.zeros(axis.m)
        prof = radial_envelope(zero, axis)
        assert abs(orthogonality_defect_radial(zero, prof, radial_ma_mass(prof, 1))) < 1e-12
        h_cont = np.minimum(0.3 * (axis.ts + 5.0), 0.0)
        prof = radial_envelope(h_cont, axis)
        for n in (1, 2):
            assert abs(orthogonality_defect_radial(h_cont, prof, radial_ma_mass(prof, n))) < 1e-10

    def test_orthogonality_defect_of_ball_counts_the_atom(self):
        # with the h(0) = 0 sampling convention the defect equals the gap
        # (0 - (-1)) times the atom mass
        axis = TAxis()
        h, h_lsc = ball_step_obstacle(axis)
        prof = radial_envelope(h_lsc, axis)
        for n in (1, 2, 3):
            d = orthogonality_defect_radial(h, prof, radial_ma_mass(prof, n))
            assert abs(d - (1.0 - 2.0**-n)) < 1e-6

    @pytest.mark.parametrize("m", [9, 63, 255, 4095])
    def test_ambient_median_matches_ndimage(self, m):
        # the atom detector's ambient slope variation; scipy.ndimage's
        # median_filter with mode "nearest" is the oracle
        rng = np.random.default_rng(m)
        for _ in range(10):
            pos = rng.integers(0, 4, size=m) * rng.choice([0.25, 1e-3, 1e-9])
            assert np.array_equal(_window_median(pos), median_filter(pos, size=9, mode="nearest"))


class TestLocalEnvelopes:
    def test_constant_obstacle_in_both_modes(self):
        axis = TAxis()
        h = np.full(axis.m, -3.25)
        for mode in ("interior", "closure"):
            env = local_envelope_ball(h, axis, mode)
            assert np.abs(env.values + 3.25).max() == 0.0

    def test_boundary_dip_separates_the_modes(self):
        # obstacle 0 inside, -1 at the boundary sample: constraining only the
        # interior gives 0; including the boundary point collapses to -1
        axis = TAxis()
        h = np.where(axis.ts == 0.0, -1.0, 0.0)
        interior = local_envelope_ball(h, axis, "interior")
        closure = local_envelope_ball(h, axis, "closure")
        assert np.abs(interior.values).max() == 0.0
        assert np.abs(closure.values + 1.0).max() == 0.0

    def test_unknown_mode_rejected(self):
        axis = TAxis()
        with pytest.raises(ValueError):
            local_envelope_ball(np.zeros(axis.m), axis, "everywhere")


class TestRadialSerialization:
    def test_measure_csv_header(self, tmp_path):
        run_scenario(parse_config_text("scenario = radial-ball\n"), tmp_path)
        lines = (tmp_path / "measure_n1.csv").read_text().splitlines()
        assert lines[0] == "t,cumulative,mass,is_atom"
        assert len(lines) == 1 + TAxis().m
        assert sum(line.endswith(",1") for line in lines[1:]) == 1  # the atom row
        assert lines[-1].endswith(",1,0,0")  # total mass 1, no mass past t_max
