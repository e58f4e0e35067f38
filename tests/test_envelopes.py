"""Obstacle-problem envelopes and the exponential penalization scheme."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from maenv import (
    GridField,
    ThetaDensity,
    TorusGrid,
    constant_field,
    envelope_mu,
    field_from_function,
    is_theta_psh,
    penalized_envelope,
    penalized_step,
    psor_envelope,
    psor_envelopes,
    random_smooth_field,
    theta_cosine,
)
from maenv.errors import EmptySupport, NonConvergence
from maenv.fields import random_theta_psh, step_band, supersolution_corpus
from maenv.torus import MeasureDensity, curvature_values, neighbor_sum
from maenv import _newton, obstacle, torus
from maenv.obstacle import (
    PenalizationSchedule,
    _natural_residual,
    _psor_values,
    lower_bound_slack,
    orthogonality_defect,
)
from maenv.radial import constrained_convex_envelope

from oracles import active_set_envelope_1d, psor_sweeps_reference


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(128)


@pytest.fixture(scope="module")
def theta_one(grid):
    return ThetaDensity(constant_field(grid, 1.0))


@pytest.fixture(scope="module")
def mu_one(grid):
    return MeasureDensity(constant_field(grid, 1.0))


@pytest.fixture(scope="module")
def grid_small():
    return TorusGrid(64)


@pytest.fixture(scope="module")
def theta_one_small(grid_small):
    return ThetaDensity(constant_field(grid_small, 1.0))


@pytest.fixture(scope="module")
def mu_one_small(grid_small):
    return MeasureDensity(constant_field(grid_small, 1.0))


def kinked_obstacle(grid):
    return field_from_function(
        grid,
        lambda x, y: np.minimum(0.0, 0.25 - np.cos(2 * np.pi * x) ** 2 - 0.3 * np.sin(2 * np.pi * y)),
    )


class TestPsorEnvelope:
    def test_zero_obstacle_semipositive_theta(self, grid, theta_one):
        sol = psor_envelope(theta_one, constant_field(grid, 0.0), tol=1e-10)
        assert np.abs(sol.u.values).max() == 0.0
        assert sol.contact_mask.all()

    def test_sign_changing_theta_matches_1d_oracle(self, grid):
        # data depends on x only, so the 2-D envelope must agree with an
        # independently written 1-D active-set solve column by column
        theta = ThetaDensity(
            field_from_function(grid, lambda x, y: 1.0 + 2.0 * np.cos(2 * np.pi * x))
        )
        sol = psor_envelope(theta, constant_field(grid, 0.0), tol=1e-11)
        n = grid.n
        theta_1d = 1.0 + 2.0 * np.cos(2 * np.pi * np.arange(n) / n)
        oracle = active_set_envelope_1d(theta_1d, np.zeros(n))
        assert np.abs(sol.u.values - oracle[:, None]).max() < 1e-6
        assert sol.u.values.min() < -0.1  # genuinely nonconstant
        band = sol.contact_mask[:, 0]
        assert 0.2 < band.mean() < 0.8  # contact on a band, not everywhere
        assert abs(sol.complementarity_defect) < 1e-10

    @pytest.mark.parametrize("constrained", [False, True])
    def test_contact_mask_is_exact_equality(self, grid, theta_one, constrained):
        h = kinked_obstacle(grid)
        x, _ = grid.coords()
        mask = (x < 0.6) if constrained else np.ones((grid.n, grid.n), bool)
        sol = psor_envelope(theta_one, h, tol=1e-10, constraint_mask=mask if constrained else None)
        assert (sol.contact_mask == (mask & (sol.u.values == h.values))).all()
        assert 0 < sol.contact_mask.sum() < mask.sum()

    def test_min_of_two_admissible_functions(self, grid, theta_one):
        a = field_from_function(grid, lambda x, y: 0.05 * np.cos(2 * np.pi * x))
        b = field_from_function(grid, lambda x, y: 0.05 * np.sin(2 * np.pi * (x + y)))
        assert is_theta_psh(theta_one, a).passed and is_theta_psh(theta_one, b).passed
        h = GridField(grid, np.minimum(a.values, b.values))
        sol = psor_envelope(theta_one, h, tol=1e-10)
        assert abs(sol.complementarity_defect) < 1e-10
        assert (sol.u.values <= h.values + 1e-12).all()

    def test_envelope_properties(self, grid, theta_one):
        h = kinked_obstacle(grid)
        sol = psor_envelope(theta_one, h, tol=1e-10)
        assert (sol.u.values <= h.values + 1e-12).all()
        assert is_theta_psh(theta_one, sol.u).passed
        again = psor_envelope(theta_one, sol.u, tol=1e-10)
        assert np.abs(again.u.values - sol.u.values).max() < 1e-9
        # monotone in the obstacle, and equivariant under constant shifts
        shifted = psor_envelope(theta_one, GridField(grid, h.values + 0.07), tol=1e-10)
        assert (shifted.u.values - sol.u.values).min() > -1e-12
        assert np.abs(shifted.u.values - sol.u.values - 0.07).max() < 5e-9

    def test_nonconvergence_carries_best_iterate(self, grid, theta_one):
        h = kinked_obstacle(grid)
        with pytest.raises(NonConvergence) as exc:
            psor_envelope(theta_one, h, tol=1e-14, max_iter=50)
        assert exc.value.best is not None
        assert exc.value.best.u.values.shape == (grid.n, grid.n)
        assert exc.value.iterations == 50
        assert exc.value.residual > 0

    def test_exhausted_budget_records_its_last_check_once(self):
        # the sweeps resumed after the active-set steps run out at sweep 50,
        # a residual check of their own; the history ends with it once
        grid = TorusGrid(32)
        x, _ = grid.coords()
        h = GridField(grid, np.minimum(0.0, 0.25 - np.cos(2 * np.pi * x) ** 2))
        with pytest.raises(NonConvergence) as exc:
            psor_envelope(theta_cosine(grid), h, tol=1e-14, max_iter=50)
        report = exc.value.best.report
        assert report.iterations == 50
        assert report.history[-1] == report.residual
        assert report.history.count(report.residual) == 1

    def test_empty_constraint_mask_rejected(self, grid, theta_one):
        with pytest.raises(EmptySupport):
            psor_envelope(
                theta_one,
                constant_field(grid, 0.0),
                constraint_mask=np.zeros((grid.n, grid.n), bool),
            )


def step_obstacle(n):
    x = np.arange(n) / n
    band = (x >= 0.25) & (x <= 0.75)
    return np.where(band[:, None] & (x[None, :] < 0.6), -1.0, 0.0)


def smooth_obstacle(n):
    return kinked_obstacle(TorusGrid(n)).values


def cosine_theta(n):
    x = np.arange(n) / n
    return 1.0 + 0.8 * np.cos(2 * np.pi * x)[:, None] * np.ones((1, n))


class TestPsorSweepMatchesReference:
    """The colour-vector sweep reproduces the whole-grid sweep bit for bit."""

    @staticmethod
    def assert_identical(theta, hproj, tol=1e-9, max_iter=200_000, init=None):
        if init is None:
            init = np.full_like(hproj, float(hproj[np.isfinite(hproj)].min()))
        got = _psor_values(theta, hproj, tol, max_iter, init.copy())
        want = psor_sweeps_reference(theta, hproj, tol, max_iter, None, init.copy())
        u, sweeps, res, history, ok = got
        assert np.array_equal(u, want[0])
        assert (sweeps, ok) == (want[1], want[4])
        assert np.array_equal(np.array(history), np.array(want[3]))
        assert np.array_equal(res, want[2])
        return got

    # at n = 10 and 18, n/2 is odd: each colour's rows wrap at an odd count
    @pytest.mark.parametrize("n", [8, 10, 18, 64, 128])
    @pytest.mark.parametrize("obstacle", [smooth_obstacle, step_obstacle])
    def test_obstacles_to_convergence(self, n, obstacle):
        _, sweeps, _, _, ok = self.assert_identical(cosine_theta(n), obstacle(n))
        assert ok and sweeps > 8

    def test_constraint_mask(self):
        n = 64
        mask = np.ones((n, n), bool)
        mask[n // 2 - 3 : n // 2 + 3, :] = False
        mask[:, 5] = False
        hproj = np.where(mask, smooth_obstacle(n), np.inf)
        self.assert_identical(cosine_theta(n), hproj)

    def test_explicit_init(self):
        n = 64
        x = np.arange(n) / n
        init = 0.3 * np.sin(2 * np.pi * x)[:, None] * np.cos(4 * np.pi * x)[None, :]
        self.assert_identical(cosine_theta(n), step_obstacle(n), init=init)

    def test_budget_exhausted_off_the_check_period(self):
        n = 64
        _, sweeps, _, history, ok = self.assert_identical(
            cosine_theta(n), step_obstacle(n), tol=1e-14, max_iter=29
        )
        assert not ok and sweeps == 29
        # one check every 8 sweeps and one at the 29th, the last
        assert len(history) == 29 // 8 + 1

    def test_no_sweep_budget_checks_the_start_once(self):
        n = 64
        _, sweeps, res, history, ok = self.assert_identical(
            cosine_theta(n), step_obstacle(n), tol=1e-14, max_iter=0
        )
        assert not ok and sweeps == 0
        assert history == [res]


def test_cached_colour_split_is_read_only():
    order, gathers = torus._colour_split(16)
    assert torus._colour_split(16)[0] is order
    for arr in (order, *(a for g in gathers for a in (g.data, g.indices, g.indptr))):
        with pytest.raises(ValueError, match="read-only"):
            arr += 0


def crossing_min(grid, seed):
    theta = theta_cosine(grid)
    rng = np.random.default_rng(seed)
    u, w = (random_theta_psh(theta, rng).values for _ in range(2))
    return np.minimum(u - u.mean(), w - w.mean())


def null_band_mask(n):
    mask = np.ones((n, n), bool)
    mask[n // 2 - 2 : n // 2 + 2, :] = False
    return mask


# (name, obstacle(grid), constraint mask(n) or None): the orthogonality
# scenario's smooth draws and lsc step band, the min-principle crossing
# pairs, an envelope_mu mask and the viscosity pipeline's corpus
CROSS_CHECK_CASES = (
    [
        (f"smooth-{seed}", lambda g, seed=seed: random_smooth_field(
            g, np.random.default_rng(seed), amplitude=0.2 + 0.4 * seed
        ).values, None)
        for seed in (0, 1, 2)
    ]
    + [("step-band", lambda g: step_band(g, 0.25, 0.75)[1].values, None)]
    + [(f"crossing-{seed}", lambda g, seed=seed: crossing_min(g, seed), None) for seed in (0, 1)]
    + [("mu-mask", lambda g: smooth_obstacle(g.n), null_band_mask)]
    + [
        (f"corpus-{k}", lambda g, k=k: supersolution_corpus(g)[k].v.values, None)
        for k in range(3)
    ]
)


class TestActiveSetFinishMatchesPsor:
    """psor_envelope (PSOR, then active-set steps) against PSOR run to its floor."""

    TOL = 1e-9

    @staticmethod
    def reference(theta, hproj):
        # 16n sweeps reach 1e-12 at n = 32 and the rounding floor of the
        # residual at n = 64 (~3e-12) and n = 128 (below the 1e-9 asserted)
        n = theta.shape[0]
        init = np.full_like(hproj, float(hproj[np.isfinite(hproj)].min()))
        u, _, res, _, _ = _psor_values(theta, hproj, 1e-12, 16 * n, init)
        return u, res

    def solve(self, theta, h, mask):
        if mask is None:
            return psor_envelope(theta, h, tol=self.TOL)
        mu = MeasureDensity(GridField(h.grid, mask.astype(float)))
        return envelope_mu(theta, h, mu, tol=self.TOL)

    def check(self, n, make_obstacle, make_mask):
        grid = TorusGrid(n)
        theta = theta_cosine(grid)  # the scenarios' theta
        h = GridField(grid, make_obstacle(grid))
        mask = None if make_mask is None else make_mask(n)
        sol = self.solve(theta, h, mask)
        hproj = h.values if mask is None else np.where(mask, h.values, np.inf)
        th = theta.density.values
        want, want_res = self.reference(th, hproj)
        assert np.abs(sol.u.values - want).max() <= 1e-9
        assert want_res <= self.TOL
        assert sol.report.converged
        assert sol.report.residual == _natural_residual(sol.u.values, hproj, th, grid.h)
        assert sol.report.residual <= self.TOL
        return sol

    # n = 128 starts from the coarse levels 64, 32 and 16
    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize(
        "name, make_obstacle, make_mask",
        CROSS_CHECK_CASES,
        ids=[case[0] for case in CROSS_CHECK_CASES],
    )
    def test_agrees_with_psor(self, n, name, make_obstacle, make_mask):
        with _newton.collect_reports() as collected:
            sol = self.check(n, make_obstacle, make_mask)
        report = sol.report
        # the coarse levels add no report of their own
        assert collected == [report]
        if name == "corpus-0":
            # this obstacle is theta-psh, its own envelope: returned at once
            # after the one residual check, with no sweep and no CG
            h = make_obstacle(TorusGrid(n))
            assert is_theta_psh(theta_cosine(TorusGrid(n)), GridField(TorusGrid(n), h), self.TOL).passed
            assert np.array_equal(sol.u.values, h)
            assert (report.iterations, report.coarse_sweeps, report.cg_iterations) == (0, 0, 0)
            assert report.history == [report.residual]
            return
        assert report.coarse_sweeps > 0
        # the sweeps stopped at the first residual check (one history entry
        # per 8 sweeps) below the handover residual, so PSOR never resumed;
        # every active-set step after them appended its residual, and CG ran
        # only in such steps (a step whose boundary system's right-hand
        # side already passes its stop spends none)
        assert report.method == "psor"
        assert report.iterations % 8 == 0
        checks = report.iterations // 8
        assert min(report.history[: checks - 1], default=np.inf) > obstacle._HANDOVER_TOL
        steps = len(report.history) - checks
        assert 0 <= steps <= obstacle._ACTIVE_SET_STEPS
        assert steps > 0 or report.cg_iterations == 0
        assert report.history[-1] == report.residual

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize(
        "make_obstacle, make_mask",
        [case[1:] for case in CROSS_CHECK_CASES[::3]],
        ids=[case[0] for case in CROSS_CHECK_CASES[::3]],
    )
    def test_fallback_to_psor_still_certifies(self, monkeypatch, n, make_obstacle, make_mask):
        monkeypatch.setattr(obstacle, "_ACTIVE_SET_STEPS", 0)
        sol = self.check(n, make_obstacle, make_mask)
        assert sol.report.cg_iterations == 0


def boundary_route_solves(theta, obstacles, monkeypatch):
    """The (u, free) of every free-set solve of psor_envelopes that takes the boundary route."""
    calls = []
    solve = obstacle._free_set_solve

    def recording(u, th, h, free):
        if free.sum() >= obstacle._BOUNDARY_MIN_FREE * free.size:
            calls.append((u.copy(), free.copy()))
        return solve(u, th, h, free)

    monkeypatch.setattr(obstacle, "_free_set_solve", recording)
    psor_envelopes(theta, obstacles)
    monkeypatch.setattr(obstacle, "_free_set_solve", solve)
    return calls


def orthogonality_draws(grid, seed, count=3):
    # the orthogonality scenario's smooth obstacles, drawn as it draws them
    rng = np.random.default_rng(seed)
    return [random_smooth_field(grid, rng, amplitude=float(rng.uniform(0.2, 1.0))) for _ in range(count)]


def norm(v):
    return float(np.sqrt(np.sum(v * v)))


class TestBoundaryStart:
    """Free-set solves by the contact-boundary system against a direct solve."""

    @staticmethod
    def solve_both(monkeypatch, u, theta, free):
        """The solve by the boundary system and by spsolve; checks the route, agreement and residuals."""
        n = u.shape[0]
        h = 1.0 / n
        # with u = 0 on the free sites the solve's correction is the returned field there
        u = np.where(free, 0.0, u)
        routes = []
        boundary_solve = obstacle._boundary_solve

        def recording(r, f):
            e, its = boundary_solve(r, f)
            routes.append((e is not None, its))
            return e, its

        monkeypatch.setattr(obstacle, "_boundary_solve", recording)
        got, its = obstacle._free_set_solve(u, theta, h, free)
        monkeypatch.setattr(obstacle, "_boundary_solve", boundary_solve)
        [(ran, boundary_its)] = routes
        assert ran
        # the boundary system is the whole solve: no free-set CG follows it
        assert its == boundary_its
        idx = np.flatnonzero(free)
        op = _newton._curvature_operator(n)[idx][:, idx]
        r = (theta + curvature_values(u, h)).ravel()[idx]
        want = u.copy()
        want.ravel()[idx] = spsolve(op.tocsc(), r)
        assert np.abs(got - want).max() <= 1e-12
        for out in (got, want):
            assert np.array_equal(out[~free], u[~free])
            assert norm(r - op @ out.ravel()[idx]) <= 1e-13 * norm(r)

    @staticmethod
    def boundary_size(free):
        return int((~free & neighbor_sum(free)).sum())

    @pytest.mark.parametrize("n", [24, 32])
    def test_two_full_boundary_lines(self, monkeypatch, n):
        # the capacity certificate's solve on the sandwich's stripe mask x < 1/4:
        # theta = 0 and the indicator as the Dirichlet data
        x, _ = TorusGrid(n).coords()
        stripe = x < 0.25
        assert self.boundary_size(~stripe) == 2 * n
        self.solve_both(monkeypatch, stripe.astype(float), np.zeros((n, n)), ~stripe)

    @pytest.mark.parametrize("n", [32, 64])
    def test_disc(self, monkeypatch, n):
        grid = TorusGrid(n)
        x, y = grid.coords()
        disc = (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.04
        h = random_smooth_field(grid, np.random.default_rng(n), amplitude=0.5).values
        self.solve_both(monkeypatch, h, theta_cosine(grid).density.values, ~disc)

    @pytest.mark.parametrize(
        "n, share", [(24, 0.05), (24, 0.1), (24, 0.2), (24, 0.4), (32, 0.2), (64, 0.05)]
    )
    def test_random_masks(self, monkeypatch, n, share):
        grid = TorusGrid(n)
        rng = np.random.default_rng(int(100 * share) + n)
        contact = rng.random((n, n)) < share
        assert 2 <= self.boundary_size(~contact)
        h = random_smooth_field(grid, rng, amplitude=0.5).values
        self.solve_both(monkeypatch, h, theta_cosine(grid).density.values, ~contact)

    # at n = 128 seed 0 draws a contact set with a 501-site boundary, above
    # the 400 sites the boundary system was once capped at
    @pytest.mark.parametrize("n", [24, 32, 64, 128])
    def test_orthogonality_smooth_draws(self, monkeypatch, n):
        grid = TorusGrid(n)
        theta = theta_cosine(grid)
        seed = 0 if n == 128 else n
        calls = boundary_route_solves(theta, orthogonality_draws(grid, seed), monkeypatch)
        assert calls
        if n == 128:
            assert max(self.boundary_size(free) for _, free in calls) > 400
        for u, free in calls:
            self.solve_both(monkeypatch, u, theta.density.values, free)

    @pytest.mark.parametrize("n", [16, 32])
    def test_single_site_boundary(self, monkeypatch, n):
        contact = np.zeros((n, n), bool)
        contact[n // 3, n // 2] = True
        assert self.boundary_size(~contact) == 1
        self.solve_both(monkeypatch, contact.astype(float), np.zeros((n, n)), ~contact)
        grid = TorusGrid(n)
        self.solve_both(monkeypatch, np.where(contact, 2.0, 0.0), theta_cosine(grid).density.values, ~contact)

    def test_capped_boundary_cg_still_certifies(self, monkeypatch):
        # every boundary system reports a miss, so each solve starts from zero
        grid = TorusGrid(64)
        theta = theta_cosine(grid)
        obstacles = orthogonality_draws(grid, 64)
        want = psor_envelopes(theta, obstacles)
        missed = []
        boundary_start = obstacle._boundary_solve

        def missing(r, f):
            _, its = boundary_start(r, f)
            missed.append(its)
            return None, its

        monkeypatch.setattr(obstacle, "_boundary_solve", missing)
        got = psor_envelopes(theta, obstacles)
        assert missed
        for sol, ref in zip(got, want):
            assert sol.report.converged
            assert sol.report.residual <= obstacle._PSOR_TOL
            assert np.abs(sol.u.values - ref.u.values).max() <= 1e-12


@pytest.mark.parametrize("n", [8, 24, 64])
def test_green_kernel_inverts_minus_c(n):
    # G applied to a column of -C is delta - 1/n^2, by the offset kernel and
    # by the FFT symbol
    symbol, kernel = obstacle._green(n)
    assert obstacle._green(n)[1] is kernel
    neg = _newton._curvature_operator(n)
    i, j = np.divmod(np.arange(n * n), n)
    for site in (0, n + 1, n * n // 2 + n // 3, n * n - 1):
        column = neg[:, [site]].toarray().ravel()
        delta = np.where(np.arange(n * n) == site, 1.0, 0.0) - 1.0 / n**2
        applied = np.zeros(n * n)
        for b in np.flatnonzero(column):
            bi, bj = divmod(b, n)
            applied += column[b] * kernel[i - bi + n - 1, j - bj + n - 1]
        assert np.abs(applied - delta).max() <= 1e-12
        fft = obstacle._apply_green(symbol, column.reshape(n, n)).ravel()
        assert np.abs(fft - delta).max() <= 1e-12
    assert symbol[0, 0] == 0.0
    for arr in (symbol, kernel):
        with pytest.raises(ValueError, match="read-only"):
            arr += 0


def alternating_theta(n):
    # theta = -1 on the even sub-lattice, so the injected problem has no
    # theta-psh field at all: sweeps from any start drift down forever
    i = np.arange(n) % 2 == 0
    return ThetaDensity(GridField(TorusGrid(n), 1.0 - 2.0 * (i[:, None] & i[None, :])))


class TestCoarseStartGuards:
    """A coarse level that cannot help is dropped for the constant start."""

    def test_injected_theta_without_positive_mass(self):
        n = 64
        theta = alternating_theta(n)
        h = GridField(theta.grid, smooth_obstacle(n))
        sol = psor_envelope(theta, h, tol=1e-9)
        want, want_res = TestActiveSetFinishMatchesPsor.reference(theta.density.values, h.values)
        assert want_res <= 1e-9
        assert np.abs(sol.u.values - want).max() <= 1e-9
        assert sol.report.converged
        assert sol.report.iterations <= 184  # the constant start's count
        assert sol.report.coarse_sweeps == 0

    def test_missed_budget_gives_the_constant_start(self, monkeypatch):
        n = 64
        theta = theta_cosine(TorusGrid(n))
        h = GridField(theta.grid, crossing_min(theta.grid, 0))
        with monkeypatch.context() as m:
            m.setattr(obstacle, "_COARSE_MIN_N", n + 1)
            constant = psor_envelope(theta, h, tol=1e-9)
        monkeypatch.setattr(obstacle, "_COARSE_BUDGET", 0)
        missed = psor_envelope(theta, h, tol=1e-9)
        assert np.array_equal(missed.u.values, constant.u.values)
        assert missed.report.iterations == constant.report.iterations == 64
        assert missed.report.history == constant.report.history
        assert missed.report.coarse_sweeps == 0

    # n = 34 has an odd half grid (no red-black colouring) and starts from
    # the constant; n = 68 takes one coarse level at 34, which stops there
    @pytest.mark.parametrize("n, coarse", [(34, False), (68, True)])
    def test_half_grid_without_colouring(self, n, coarse):
        theta = theta_cosine(TorusGrid(n))
        h = GridField(theta.grid, crossing_min(theta.grid, 0))
        sol = psor_envelope(theta, h, tol=1e-9)
        want, want_res = TestActiveSetFinishMatchesPsor.reference(theta.density.values, h.values)
        assert want_res <= 1e-9
        assert np.abs(sol.u.values - want).max() <= 1e-9
        assert sol.report.converged
        assert (sol.report.coarse_sweeps > 0) == coarse


def even_sites_free_mask(n):
    # constrained only off the even sub-lattice: no coarse level for this problem
    i = np.arange(n) % 2 == 1
    return i[:, None] | i[None, :]


# (name, obstacle(grid), constraint mask(n) or None) of one n = 64 stack
# sharing theta_cosine: smooth draws, the lsc step band, a crossing pair,
# an envelope_mu mask, and a mask that fails the coarse level's guard
STACK_CASES = CROSS_CHECK_CASES[:6] + [
    ("mu-mask", lambda g: smooth_obstacle(g.n), null_band_mask),
    ("even-free", lambda g: smooth_obstacle(g.n), even_sites_free_mask),
]


def solve_stack_and_alone(theta, obstacles, masks, **kwargs):
    with _newton.collect_reports() as collected:
        stacked = psor_envelopes(theta, obstacles, constraint_masks=masks, **kwargs)
    assert collected == [sol.report for sol in stacked]  # built in input order
    alone = []
    for h, mask in zip(obstacles, masks):
        with _newton.collect_reports() as one:
            alone.append(psor_envelope(theta, h, constraint_mask=mask, **kwargs))
        assert one == [alone[-1].report]
    return stacked, alone


class TestStackedSweepsMatchSolo:
    """psor_envelopes gives every problem of a stack its solo result, bit for bit."""

    @staticmethod
    def assert_same(stacked, alone):
        assert len(stacked) == len(alone)
        for got, want in zip(stacked, alone):
            assert np.array_equal(got.u.values, want.u.values)
            assert np.array_equal(got.contact_mask, want.contact_mask)
            assert got.complementarity_defect == want.complementarity_defect
            # iterations, coarse_sweeps, cg_iterations, residual and history
            assert got.report == want.report

    # one active-set step certifies each of these problems; with none, each
    # resumes PSOR after the handover, one problem at a time
    @pytest.mark.parametrize("steps", [obstacle._ACTIVE_SET_STEPS, 0])
    def test_mixed_stack(self, monkeypatch, steps):
        monkeypatch.setattr(obstacle, "_ACTIVE_SET_STEPS", steps)
        resumed = []
        sweep = obstacle._psor_values

        def counting(theta, hproj, *args):
            resumed.append(hproj.ndim == 2)  # only the resume sweeps one grid
            return sweep(theta, hproj, *args)

        monkeypatch.setattr(obstacle, "_psor_values", counting)
        grid = TorusGrid(64)
        theta = theta_cosine(grid)
        obstacles = [GridField(grid, case[1](grid)) for case in STACK_CASES]
        masks = [None if case[2] is None else case[2](grid.n) for case in STACK_CASES]
        stacked, alone = solve_stack_and_alone(theta, obstacles, masks, tol=1e-9)
        self.assert_same(stacked, alone)
        coarse = [sol.report.coarse_sweeps > 0 for sol in stacked]
        assert coarse == [name != "even-free" for name, *_ in STACK_CASES]
        assert all(sol.report.converged for sol in stacked)
        # every problem resumed once in the stack and once alone, or never
        assert sum(resumed) == (0 if steps else 2 * len(STACK_CASES))

    def test_stack_of_constant_starts(self):
        n = 64
        theta = alternating_theta(n)
        grid = theta.grid
        obstacles = [GridField(grid, smooth_obstacle(n)), GridField(grid, step_obstacle(n))]
        obstacles.append(GridField(grid, crossing_min(grid, 1)))
        stacked, alone = solve_stack_and_alone(theta, obstacles, [None] * 3, tol=1e-9)
        self.assert_same(stacked, alone)
        assert all(sol.report.coarse_sweeps == 0 for sol in stacked)

    def test_own_envelopes_leave_the_stack(self):
        # a theta-psh obstacle imposed everywhere, with no mask or a mask of
        # every site, is returned at once; the rest of the stack gets its
        # solo result
        grid = TorusGrid(64)
        theta = theta_cosine(grid)
        psh = supersolution_corpus(grid)[0].v
        obstacles = [psh, GridField(grid, smooth_obstacle(64)), psh, GridField(grid, crossing_min(grid, 0))]
        masks = [None, None, np.ones((64, 64), dtype=bool), None]
        stacked, alone = solve_stack_and_alone(theta, obstacles, masks, tol=1e-9)
        self.assert_same(stacked, alone)
        for sol in stacked[::2]:
            assert np.array_equal(sol.u.values, psh.values)
            assert (sol.report.iterations, sol.report.coarse_sweeps, sol.report.cg_iterations) == (0, 0, 0)
            assert sol.contact_mask.all() and sol.complementarity_defect == 0.0
        assert all(sol.report.iterations > 0 for sol in stacked[1::2])

    def test_no_obstacles(self):
        theta = theta_cosine(TorusGrid(16))
        assert psor_envelopes(theta, []) == []
        assert psor_envelopes(theta, [], constraint_masks=[]) == []

    def test_first_failure_in_input_order_is_raised(self):
        grid = TorusGrid(64)
        theta = ThetaDensity(constant_field(grid, 1.0))
        obstacles = [constant_field(grid, 0.0), kinked_obstacle(grid), GridField(grid, step_obstacle(64))]
        with _newton.collect_reports() as collected:
            with pytest.raises(NonConvergence) as exc:
                psor_envelopes(theta, obstacles, tol=1e-14, max_iter=50)
        with pytest.raises(NonConvergence) as solo:
            psor_envelope(theta, obstacles[1], tol=1e-14, max_iter=50)
        assert [r.converged for r in collected] == [True, False, False]
        assert exc.value.best.report == solo.value.best.report
        assert np.array_equal(exc.value.best.u.values, solo.value.best.u.values)
        assert str(exc.value) == str(solo.value)

    def test_grids_other_than_thetas_are_rejected(self):
        theta = theta_cosine(TorusGrid(64))
        h = GridField(theta.grid, smooth_obstacle(64))
        with pytest.raises(ValueError, match="grids differ"):
            psor_envelopes(theta, [h, GridField(TorusGrid(32), smooth_obstacle(32))])
        with pytest.raises(ValueError, match="mask shape"):
            psor_envelopes(theta, [h, h], constraint_masks=[None, null_band_mask(32)])
        with pytest.raises(ValueError, match="one constraint mask per obstacle"):
            psor_envelopes(theta, [h, h], constraint_masks=[None])


METAMORPHIC_CASES = [(n, seed) for n in (16, 32) for seed in (0, 1, 2)]


def seeded_obstacle(n, seed):
    grid = TorusGrid(n)
    rng = np.random.default_rng(seed)
    return grid, rng, random_smooth_field(grid, rng, amplitude=1.0).values


def tight_envelope(theta, values):
    return psor_envelope(theta, GridField(theta.grid, values), tol=1e-11).u.values


class TestEnvelopeMetamorphic:
    """Identities of the exact envelope that the solver output keeps to 1e-9."""

    @pytest.mark.parametrize("n, seed", METAMORPHIC_CASES)
    def test_constants_pass_through(self, n, seed):
        grid, rng, h = seeded_obstacle(n, seed)
        theta = theta_cosine(grid, amplitude=0.5)
        c = float(rng.uniform(-2.0, 2.0))
        gap = tight_envelope(theta, h + c) - (tight_envelope(theta, h) + c)
        assert np.abs(gap).max() <= 1e-9

    @pytest.mark.parametrize("shift", [(1, 0), (0, 3), (5, 2)])
    @pytest.mark.parametrize("n, seed", METAMORPHIC_CASES)
    def test_commutes_with_periodic_shifts(self, n, seed, shift):
        # odd shifts swap the red-black colours, so the iterates differ
        grid, _, h = seeded_obstacle(n, seed)
        theta = ThetaDensity(constant_field(grid, 1.0))
        shifted = tight_envelope(theta, np.roll(h, shift, axis=(0, 1)))
        assert np.abs(shifted - np.roll(tight_envelope(theta, h), shift, axis=(0, 1))).max() <= 1e-9

    @pytest.mark.parametrize("n, seed", METAMORPHIC_CASES)
    def test_monotone_in_the_obstacle(self, n, seed):
        grid, rng, h = seeded_obstacle(n, seed)
        theta = theta_cosine(grid, amplitude=0.5)
        lift = random_smooth_field(grid, rng, amplitude=0.5).values
        higher = h + (lift - lift.min())
        assert np.all(tight_envelope(theta, h) <= tight_envelope(theta, higher) + 1e-9)

    @pytest.mark.parametrize("n, seed", METAMORPHIC_CASES)
    def test_output_is_admissible_and_below_the_obstacle(self, n, seed):
        grid, _, h = seeded_obstacle(n, seed)
        theta = theta_cosine(grid, amplitude=0.5)
        u = tight_envelope(theta, h)
        assert np.all(u <= h)
        assert is_theta_psh(theta, GridField(grid, u), 1e-9).passed


class TestEnvelopeWithPartialConstraint:
    def test_full_support_matches_unconstrained_solver(self, grid, theta_one, mu_one):
        h = kinked_obstacle(grid)
        a = envelope_mu(theta_one, h, mu_one, tol=1e-10)
        b = psor_envelope(theta_one, h, tol=1e-10)
        assert np.abs(a.u.values - b.u.values).max() == 0.0

    def test_constraint_dropped_on_a_null_column(self, grid, theta_one):
        # v = -1 on one column where the measure vanishes: the constrained
        # envelope stays pinned at 0 on the support and can only bulge by the
        # one-site curvature budget pi*h^2 on the free column, while the
        # plain envelope is dragged all the way down to -1
        n = grid.n
        col = np.zeros((n, n), bool)
        col[n // 2, :] = True
        v = GridField(grid, np.where(col, -1.0, 0.0))
        mu = MeasureDensity(GridField(grid, np.where(col, 0.0, 1.0)))
        sol = envelope_mu(theta_one, v, mu, tol=1e-10)
        assert np.abs(sol.u.values[~col]).max() == 0.0
        assert sol.u.values.min() >= 0.0
        assert sol.u.values.max() <= np.pi / n**2 + 1e-10
        plain = psor_envelope(theta_one, v, tol=1e-10)
        assert plain.u.values.min() < -0.9

    def test_constant_obstacle_with_thin_null_set(self, grid, theta_one):
        n = grid.n
        col = np.zeros((n, n), bool)
        col[n // 2, :] = True
        mu = MeasureDensity(GridField(grid, np.where(col, 0.0, 1.0)))
        sol = envelope_mu(theta_one, constant_field(grid, -0.3), mu, tol=1e-10)
        assert np.abs(sol.u.values[~col] + 0.3).max() == 0.0
        assert np.abs(sol.u.values + 0.3).max() <= np.pi / n**2 + 1e-10

    def test_sandwich_above_plain_envelope(self, grid, theta_one):
        n = grid.n
        col = np.zeros((n, n), bool)
        col[n // 2, :] = True
        mu = MeasureDensity(GridField(grid, np.where(col, 0.0, 1.0)))
        h = kinked_obstacle(grid)
        wider = envelope_mu(theta_one, h, mu, tol=1e-10)
        plain = psor_envelope(theta_one, h, tol=1e-10)
        assert (wider.u.values - plain.u.values).min() >= -1e-12


def exact_x_only_envelope(obstacle, amplitude, n, samples=2**14):
    """P(h) at x = i/n for theta = 1 + amplitude cos 2 pi x and h = obstacle(x).

    With theta and h depending on x only, theta + curvature(u) >= 0 reads
    u'' >= -2 pi theta, so P(h) = conv(h + Theta) - Theta with
    Theta = pi x^2 - amplitude cos(2 pi x) / (2 pi), Theta'' = 2 pi theta.
    A period's shift adds an affine function to h + Theta, so the convex
    minorant of three periods is exact on the middle one.  It is the radial
    hull's, of the samples plus L x: L lifts every slope above 0, so the
    hull's slope-0 clip never acts, and L x comes off again.
    """
    xs = np.arange(-samples, 2 * samples) / samples

    def big_theta(x):
        return np.pi * x * x - amplitude * np.cos(2 * np.pi * x) / (2 * np.pi)

    lift = 10 * np.pi
    hull = constrained_convex_envelope(xs, obstacle(xs) + big_theta(xs) + lift * xs, s_max=None)
    assert hull.vx[0] == xs[0]  # no slope was clipped
    x = np.arange(n) / n
    return hull(x) - lift * x - big_theta(x)


def zero_obstacle(x):
    return np.zeros_like(x)


def two_mode_obstacle(x):
    return 0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x)


class TestContinuumEnvelope:
    """psor_envelope against the exact envelope of x-only data, an accuracy ruler.

    Bounds are about twice the sup errors at n = 128 (4.40e-5, 1.66e-4 and
    1.47e-4); from n = 32 to 128 they fall 18.1, 9.1 and 28.1 fold, and at
    least 6 fold is required.
    """

    @pytest.mark.parametrize(
        "obstacle, amplitude, bound",
        [(zero_obstacle, 2.0, 9e-5), (two_mode_obstacle, 0.0, 3.5e-4), (two_mode_obstacle, 2.0, 3e-4)],
        ids=["V_theta", "two_modes_a0", "two_modes_a2"],
    )
    def test_sup_error_and_its_decay(self, obstacle, amplitude, bound):
        errors = []
        for n in (32, 128):
            grid = TorusGrid(n)
            x, _ = grid.coords()
            u = psor_envelope(theta_cosine(grid, amplitude=amplitude), GridField(grid, obstacle(x))).u.values
            errors.append(float(np.abs(u - exact_x_only_envelope(obstacle, amplitude, n)[:, None]).max()))
        assert errors[1] <= bound
        assert errors[0] >= 6 * errors[1]


class TestPenalizedScheme:
    def test_zero_obstacle_fixed_point(self, grid, theta_one, mu_one):
        sched = PenalizationSchedule(js=(1.0, 4.0, 16.0, 64.0))
        pe = penalized_envelope(theta_one, constant_field(grid, 0.0), mu_one, schedule=sched)
        for it in pe.iterates:
            assert np.abs(it.values).max() < 1e-8

    def test_constant_obstacle_fixed_point(self, grid, theta_one, mu_one):
        sched = PenalizationSchedule(js=(1.0, 16.0, 256.0))
        pe = penalized_envelope(theta_one, constant_field(grid, -0.7), mu_one, schedule=sched)
        assert np.abs(pe.iterates[-1].values + 0.7).max() < 1e-8

    def test_single_step_close_to_envelope_at_large_penalty(self, grid, theta_one, mu_one):
        v = kinked_obstacle(grid)
        phi, report = penalized_step(theta_one, v, mu_one, 1024.0)
        assert report.converged
        oracle = psor_envelope(theta_one, v, tol=1e-10)
        assert np.abs(phi.values - oracle.u.values).max() < 5e-3

    def test_distances_decrease_and_close_the_gap(self, theta_one_small, mu_one_small, grid_small):
        v = kinked_obstacle(grid_small)
        sched = PenalizationSchedule(js=tuple(float(2**k) for k in range(13)))
        pe = penalized_envelope(theta_one_small, v, mu_one_small, schedule=sched)
        sups, l1s = pe.sup_dists, pe.l1_dists
        assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(l1s, l1s[1:]))
        assert sups[-1] < 1e-2 * (1.0 + np.abs(v.values).max())
        assert min(pe.slacks) >= -1e-8

    def test_iterates_rise_except_on_the_overshoot(self, theta_one_small, mu_one_small, grid_small):
        # phi_j can exceed v by O(log j / j); doubling j pulls the overshoot
        # region back down, so pointwise increase only holds up to the
        # previous overshoot, which must and does shrink to zero
        v = field_from_function(grid_small, lambda x, y: 0.2 * np.cos(2 * np.pi * x) + 0.1 * np.sin(2 * np.pi * y))
        sched = PenalizationSchedule(js=tuple(float(2**k) for k in range(13)))
        pe = penalized_envelope(theta_one_small, v, mu_one_small, schedule=sched)
        overshoots = [float((it.values - v.values).max()) for it in pe.iterates]
        for prev, nxt, over in zip(pe.iterates, pe.iterates[1:], overshoots):
            assert (nxt.values - prev.values).min() >= -over - 1e-10
        assert overshoots[-1] < 1e-3
        assert (pe.iterates[-1].values - pe.iterates[-2].values).min() > -1e-3

    def test_contraction_in_the_obstacle(self, theta_one_small, mu_one_small, grid_small):
        n = grid_small.n
        v = kinked_obstacle(grid_small)
        w = GridField(grid_small, v.values + 0.1 * np.cos(2 * np.pi * np.arange(n) / n)[:, None] ** 2)
        gap = np.abs(v.values - w.values).max()
        for j in (16.0, 256.0):
            pv, _ = penalized_step(theta_one_small, v, mu_one_small, j)
            pw, _ = penalized_step(theta_one_small, w, mu_one_small, j)
            assert np.abs(pv.values - pw.values).max() <= gap + 1e-12

    def test_null_set_data_converges_to_constrained_envelope(self, theta_one_small, mu_one_small, grid_small):
        # v = -1 on a measure-null column: the scheme must track the
        # mu-constrained envelope (about 0), not the plain envelope (dips to -1)
        n = grid_small.n
        col = np.zeros((n, n), bool)
        col[n // 2, :] = True
        v = GridField(grid_small, np.where(col, -1.0, 0.0))
        mu = MeasureDensity(GridField(grid_small, np.where(col, 0.0, 1.0)))
        sched = PenalizationSchedule(js=tuple(float(2**k) for k in range(13)))
        pe = penalized_envelope(theta_one_small, v, mu, schedule=sched)
        final = pe.iterates[-1]
        constrained = envelope_mu(theta_one_small, v, mu, tol=1e-10)
        assert np.abs(final.values - constrained.u.values).max() < 5e-3
        plain = psor_envelope(theta_one_small, v, tol=1e-9)
        assert np.abs(final.values - plain.u.values).max() > 0.9

    @pytest.mark.parametrize(
        "js, fewer_steps",
        [(tuple(float(2**k) for k in range(13)), True), ((1.0, 3.0, 10.0, 30.0, 100.0), False)],
        ids=["doubling", "uneven"],
    )
    def test_predicted_starts_reach_the_warm_started_iterates(self, js, fewer_steps):
        # from the third strength on the schedule starts Newton from a secant
        # in 1/j; the solves must land on the iterates of the plain warm start
        grid = TorusGrid(32)
        theta = ThetaDensity(constant_field(grid, 1.0))
        mu = MeasureDensity(constant_field(grid, 1.0))
        v = kinked_obstacle(grid)
        pe = penalized_envelope(theta, v, mu, schedule=PenalizationSchedule(js=js))
        phi, warm_iterations = None, 0
        for j, predicted in zip(js, pe.iterates):
            phi, report = penalized_step(theta, v, mu, j, init=phi)
            warm_iterations += report.iterations
            assert np.abs(predicted.values - phi.values).max() <= 1e-9
        if fewer_steps:
            assert sum(r.iterations for r in pe.reports) < warm_iterations

    def test_schedule_validation(self):
        PenalizationSchedule()
        for js in [(4.0, 2.0), (1.0, 1.0), (-1.0, 2.0), ()]:
            with pytest.raises(ValueError):
                PenalizationSchedule(js=js)


class TestLowerBoundSlack:
    def test_constant_closed_form(self, grid):
        # v = c, theta = mu = 1: the fixed-equation solution is 0 and the
        # bound reduces to 0 >= -log(j)/j, slack exactly log(j)/j
        c = -0.42
        cf = constant_field(grid, c)
        zero = constant_field(grid, 0.0)
        for j in (2.0, 1024.0):
            s = lower_bound_slack(cf, cf, zero, j, c)
            assert abs(s - np.log(j) / j) < 1e-12

    def test_unit_penalty_reduces_to_direct_comparison(self, grid):
        c = -0.42
        cf = constant_field(grid, c)
        zero = constant_field(grid, 0.0)
        assert abs(lower_bound_slack(cf, cf, zero, 1.0, c)) < 1e-15


class TestOrthogonalityDefect:
    def test_zero_obstacle(self, grid, theta_one):
        zero = constant_field(grid, 0.0)
        env = psor_envelope(theta_one, zero, tol=1e-10).u
        assert orthogonality_defect(theta_one, zero, env) == 0.0

    def test_grid_smooth_obstacle(self, grid, theta_one):
        h = kinked_obstacle(grid)
        env = psor_envelope(theta_one, h, tol=1e-10).u
        assert abs(orthogonality_defect(theta_one, h, env)) < 1e-6

    def test_two_valued_step_leaves_residual_mass(self):
        # sampling the step lower-semicontinuously for the solve and upper-
        # semicontinuously for the defect exposes the boundary mass that a
        # jump obstacle deposits; it persists under refinement
        defects = []
        for n in (64, 128):
            g = TorusGrid(n)
            th = ThetaDensity(constant_field(g, 1.0))
            x = np.arange(n) / n
            closed = (x[:, None] >= 0.25) & (x[:, None] <= 0.75) & np.ones((1, n), bool)
            interior = (x[:, None] > 0.25) & (x[:, None] < 0.75) & np.ones((1, n), bool)
            h_solve = GridField(g, np.where(closed, -1.0, 0.0))
            h_eval = GridField(g, np.where(interior, -1.0, 0.0))
            env = psor_envelope(th, h_solve, tol=1e-10).u
            defects.append(orthogonality_defect(th, h_eval, env))
        assert all(d > 0.4 for d in defects)
        assert abs(defects[1] - defects[0]) < 0.05
