"""Exponential Monge-Ampère solves, min-composition, Perron folding."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import maenv._newton
import maenv.equations
import maenv.obstacle
from maenv import (
    GridField,
    ThetaDensity,
    TorusGrid,
    constant_field,
    field_from_function,
    ma_density,
    solve_ma_exponential,
)
from maenv._newton import newton_semilinear
from maenv.equations import (
    perron_solve,
    pmin_compose,
    subsolution_check,
    supersolution_check,
)
from maenv.errors import FamilyExhausted, InputNotSupersolution, NoSubsolution
from maenv.obstacle import PenalizationSchedule, penalized_envelope
from maenv.torus import MeasureDensity
from maenv.torus import integrate, laplacian_matrix

from oracles import newton_direct_reference, spectral_exponential_1d


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
def phi_exact(grid, theta_one, mu_one):
    phi, report = solve_ma_exponential(theta_one, mu_one)
    assert report.converged
    return phi


class TestExponentialSolve:
    def test_matched_constants_give_zero(self, phi_exact):
        assert np.abs(phi_exact.values).max() == 0.0

    def test_constant_solution_minus_one(self, grid, theta_one):
        mu = MeasureDensity(constant_field(grid, float(np.e)))
        phi, _ = solve_ma_exponential(theta_one, mu)
        assert np.abs(phi.values + 1.0).max() < 1e-12

    def test_x_only_data_against_pseudospectral_oracle(self):
        # data varies in x only, so the solution is one dimensional and an
        # independent Fourier-Newton solve provides the reference; agreement
        # improves at the expected second-order rate
        m = 4096
        mu_fine = 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(m) / m)
        oracle = spectral_exponential_1d(mu_fine, beta=1.0)
        errs = {}
        for n in (256, 512):
            g = TorusGrid(n)
            th = ThetaDensity(constant_field(g, 1.0))
            mu = MeasureDensity(
                field_from_function(g, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
            )
            phi, _ = solve_ma_exponential(th, mu)
            assert np.abs(phi.values - phi.values[:, :1]).max() < 1e-9  # y-invariant
            errs[n] = np.abs(phi.values[:, 0] - oracle[:: m // n]).max()
        assert errs[256] < 5e-6
        assert errs[512] < 1.5e-6
        assert 0.15 < errs[512] / errs[256] < 0.4


class TestMinComposition:
    def test_equal_inputs_returned_exactly(self, grid, theta_one):
        u = field_from_function(grid, lambda x, y: 0.05 * np.cos(2 * np.pi * x))
        pm = pmin_compose(theta_one, u, u)
        assert np.abs(pm.phi.values - u.values).max() == 0.0
        assert pm.max_defect <= 1e-10

    def test_ordered_inputs_return_the_smaller(self, grid, theta_one):
        u = field_from_function(grid, lambda x, y: 0.05 * np.cos(2 * np.pi * x))
        v = GridField(grid, u.values + 0.2)
        pm = pmin_compose(theta_one, u, v)
        assert np.abs(pm.phi.values - u.values).max() == 0.0
        assert pm.mask_u.all()
        assert pm.max_defect <= 1e-10

    def test_crossing_bumps_satisfy_partition_bound(self, grid, theta_one):
        u = field_from_function(grid, lambda x, y: 0.05 * np.cos(2 * np.pi * x))
        v = field_from_function(grid, lambda x, y: 0.05 * np.sin(2 * np.pi * (x + y)) - 0.01)
        pm = pmin_compose(theta_one, u, v)
        assert pm.max_defect <= 1e-6
        assert pm.l1_defect >= 0.0
        # the masks split the exact contact set by the smaller input
        contact = pm.phi.values == np.minimum(u.values, v.values)
        assert (pm.mask_u == (contact & (u.values <= v.values))).all()
        assert (pm.mask_v == (contact & (v.values <= u.values))).all()

    def test_no_mass_below_the_obstacle(self, grid, theta_one):
        # the envelope's measure lives on the contact set only
        u = field_from_function(grid, lambda x, y: 0.05 * np.cos(2 * np.pi * x))
        v = field_from_function(grid, lambda x, y: 0.05 * np.sin(2 * np.pi * (x + y)) - 0.01)
        pm = pmin_compose(theta_one, u, v)
        below = ~(pm.mask_u | pm.mask_v)
        ma = ma_density(theta_one, pm.phi).values
        stray = GridField(grid, np.where(below, np.abs(ma), 0.0))
        assert integrate(stray) < 1e-7


class TestResidualChecks:
    def test_exact_solution_is_both(self, theta_one, mu_one, phi_exact):
        assert supersolution_check(theta_one, phi_exact, mu_one, 1e-8).passed
        assert subsolution_check(theta_one, phi_exact, mu_one, 1e-8).passed

    def test_shift_up_is_supersolution_only(self, grid, theta_one, mu_one, phi_exact):
        up = GridField(grid, phi_exact.values + 1.0)
        assert supersolution_check(theta_one, up, mu_one, 1e-8).passed
        assert not subsolution_check(theta_one, up, mu_one, 1e-8).passed

    def test_shift_down_is_subsolution_only(self, grid, theta_one, mu_one, phi_exact):
        down = GridField(grid, phi_exact.values - 1.0)
        assert not supersolution_check(theta_one, down, mu_one, 1e-8).passed
        assert subsolution_check(theta_one, down, mu_one, 1e-8).passed

    def test_comparison_of_checked_pairs(self, grid, theta_one, mu_one, phi_exact):
        psi = GridField(
            grid,
            phi_exact.values + 0.3 + 0.01 * np.cos(2 * np.pi * np.arange(grid.n) / grid.n)[:, None],
        )
        sub = GridField(grid, phi_exact.values - 0.5)
        assert supersolution_check(theta_one, psi, mu_one, 1e-8).passed
        assert subsolution_check(theta_one, sub, mu_one, 1e-8).passed
        assert (sub.values <= psi.values + 1e-10).all()


class TestPerron:
    def test_exact_member_is_returned_unchanged(self, grid, theta_one, mu_one, phi_exact):
        out, history = perron_solve(theta_one, mu_one, [phi_exact], u0=constant_field(grid, -0.5))
        assert np.abs(out.values - phi_exact.values).max() == 0.0
        assert len(history) == 1

    def test_min_of_two_supersolutions_stays_one(self, grid, theta_one, mu_one, phi_exact):
        n = grid.n
        s1 = GridField(grid, phi_exact.values + 0.30 + 0.01 * np.cos(2 * np.pi * np.arange(n) / n)[:, None])
        s2 = GridField(grid, phi_exact.values + 0.25 + 0.01 * np.sin(2 * np.pi * np.arange(n) / n)[None, :])
        assert supersolution_check(theta_one, s1, mu_one, 1e-8).passed
        assert supersolution_check(theta_one, s2, mu_one, 1e-8).passed
        fold = pmin_compose(theta_one, s1, s2)
        assert supersolution_check(theta_one, fold.phi, mu_one, 1e-7).passed

    def test_growing_support_family_reaches_the_solution(self):
        # members solve the equation with the measure restricted to growing
        # stripes; folding them must descend to the full-measure solution
        n = 64
        g = TorusGrid(n)
        th = ThetaDensity(constant_field(g, 1.0))
        mu_vals = field_from_function(g, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
        mu = MeasureDensity(mu_vals)
        ys = np.arange(n)[None, :] / n
        members = []
        for frac in (0.25, 0.5, 1.0):
            mask = (ys < frac) & (mu_vals.values > 0)
            restricted = MeasureDensity(GridField(g, np.where(mask, mu_vals.values, 0.0)))
            psi, _ = solve_ma_exponential(th, restricted)
            members.append(psi)
        ratio_min = float((1.0 / mu_vals.values).min())
        u0 = constant_field(g, float(np.log(ratio_min) - 0.1))
        out, history = perron_solve(th, mu, members, u0)
        direct, _ = solve_ma_exponential(th, mu)
        assert np.abs(out.values - direct.values).max() < 1e-3
        for member in members:
            assert (out.values <= member.values + 1e-8).all()
        assert all(r.supersolution_residual <= 1e-6 for r in history)

    def test_missing_subsolution_rejected(self, grid, theta_one, mu_one, phi_exact):
        with pytest.raises(NoSubsolution):
            perron_solve(theta_one, mu_one, [phi_exact], u0=constant_field(grid, 5.0))

    def test_member_that_is_no_supersolution_rejected(self, grid, theta_one, mu_one, phi_exact):
        # phi - 0.5 is a strict subsolution: e^phi * mu exceeds ma(phi) everywhere
        down = GridField(grid, phi_exact.values - 0.5)
        with pytest.raises(InputNotSupersolution) as exc:
            perron_solve(theta_one, mu_one, [phi_exact, down], u0=constant_field(grid, -0.5))
        report = exc.value.report
        assert not report.passed
        assert report.value == supersolution_check(theta_one, down, mu_one).value > 0

    def test_members_are_checked_before_the_subsolution(self, grid, theta_one, mu_one, phi_exact):
        down = GridField(grid, phi_exact.values - 0.5)
        with pytest.raises(InputNotSupersolution):
            perron_solve(theta_one, mu_one, [down], u0=constant_field(grid, 5.0))

    def test_exhausted_family_reports_best_fold(self, grid, theta_one, mu_one, phi_exact):
        lone = GridField(grid, phi_exact.values + 1.0)
        with pytest.raises(FamilyExhausted) as exc:
            perron_solve(theta_one, mu_one, [lone], u0=constant_field(grid, -0.5))
        assert exc.value.best is not None
        assert exc.value.gap > 0


class TestNewtonMatchesDirectReference:
    """Each Newton call of a solve, repeated with one sparse LU per step.

    The library factors once per call and solves the later steps by CG
    preconditioned with that factorization; iteration counts must agree and
    the solutions to rounding.
    """

    N = 32

    @staticmethod
    def both(*args, **kwargs):
        return newton_semilinear(*args, **kwargs), newton_direct_reference(*args, **kwargs)

    @classmethod
    def calls_against_reference(cls, monkeypatch, module):
        pairs = []

        def record(*args, **kwargs):
            pairs.append(cls.both(*args, **kwargs))
            return pairs[-1][0]

        monkeypatch.setattr(module, "newton_semilinear", record)
        return pairs

    @staticmethod
    def assert_match(pairs, one_factorization=True):
        assert pairs
        for (phi, rep), (phi_ref, rep_ref) in pairs:
            assert rep.iterations == rep_ref.iterations
            assert np.abs(phi - phi_ref).max() <= 1e-12
            # the residual after each step, so an inexact step that later
            # steps correct does not pass unseen
            assert np.abs(np.subtract(rep.history, rep_ref.history)).max() <= 1e-11
            if one_factorization:
                assert rep.factorizations == 1

    def penalized_schedule(self, monkeypatch, null_column):
        grid = TorusGrid(self.N)
        theta = ThetaDensity(constant_field(grid, 1.0))
        x, _ = grid.coords()
        step = np.where(np.abs(x - 0.5) < 0.25, -1.0, 0.0)
        v = GridField(grid, np.minimum(0.25 * np.cos(2 * np.pi * x) + 0.1, step))
        rho = np.ones((self.N, self.N))
        if null_column:
            rho[self.N // 2, :] = 0.0
        pairs = self.calls_against_reference(monkeypatch, maenv.obstacle)
        sched = PenalizationSchedule(js=tuple(float(2**k) for k in range(11)))
        penalized_envelope(theta, v, MeasureDensity(GridField(grid, rho)), schedule=sched)
        return pairs

    @pytest.mark.parametrize("null_column", [False, True])
    def test_penalized_schedule(self, monkeypatch, null_column):
        pairs = self.penalized_schedule(monkeypatch, null_column)
        assert len(pairs) >= 11
        self.assert_match(pairs)

    def test_exponential_solve(self, monkeypatch):
        grid = TorusGrid(self.N)
        theta = ThetaDensity(field_from_function(grid, lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * y)))
        mu = MeasureDensity(field_from_function(grid, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x)))
        pairs = self.calls_against_reference(monkeypatch, maenv.equations)
        solve_ma_exponential(theta, mu)
        self.assert_match(pairs)

    def test_two_measure_solve(self):
        # theta + curvature(phi) = sum over w in (u, v) of e^{beta(phi - w)} ma_+(w),
        # continued in beta up to 2**10 with warm starts: two terms per call
        grid = TorusGrid(self.N)
        theta = ThetaDensity(constant_field(grid, 1.0))
        u = field_from_function(grid, lambda x, y: 0.05 * np.cos(2 * np.pi * x))
        v = field_from_function(grid, lambda x, y: 0.05 * np.sin(2 * np.pi * (x + y)) - 0.01)
        a = np.maximum(ma_density(theta, u).values, 0.0)
        b = np.maximum(ma_density(theta, v).values, 0.0)
        phi = np.minimum(u.values, v.values) - np.log(2.0) / 16.0
        pairs = []
        for beta in (16.0, 64.0, 256.0, 1024.0):
            terms = [(beta, u.values, a), (beta, v.values, b)]
            pairs.append(self.both(theta.density.values, terms, phi, tol=1e-10, max_iter=120))
            (phi, _), _ = pairs[-1]
        assert len(pairs) > 1
        self.assert_match(pairs)

    def test_local_solve(self):
        # Dirichlet data 0.3 off an eroded disk; only the disk's sites are unknowns
        n = self.N
        grid = TorusGrid(n)
        theta = ThetaDensity(constant_field(grid, 1.0))
        mu = field_from_function(grid, lambda x, y: np.maximum(np.cos(2 * np.pi * x), 0.0))
        xs = np.arange(n) / n
        disk = ((xs[:, None] - 0.5) ** 2 + (xs[None, :] - 0.5) ** 2) < 0.1
        mask = disk & np.roll(disk, 1, 0) & np.roll(disk, -1, 0) & np.roll(disk, 1, 1) & np.roll(disk, -1, 1)
        terms = [(4.0, np.zeros((n, n)), mu.values)]
        pair = self.both(
            theta.density.values,
            terms,
            constant_field(grid, 0.3).values,
            tol=1e-10,
            max_iter=80,
            free_mask=mask,
        )
        self.assert_match([pair])

    def test_refactor_fallback(self, monkeypatch):
        # a CG cap of one iteration misses the tolerance, so every later
        # step refactors at its own matrix and solves directly
        monkeypatch.setattr(maenv._newton, "_CG_MAXITER", 1)
        pairs = self.penalized_schedule(monkeypatch, null_column=True)
        self.assert_match(pairs, one_factorization=False)
        for (_, rep), _ in pairs:
            assert rep.factorizations == rep.iterations


@pytest.mark.parametrize("n", [8, 24, 32])
def test_newton_matrix_equals_the_assembled_sum(n):
    # each step writes diag(w) - C into the cached pattern of -C; it must
    # be the sparse sum bit for bit, on the full grid and on a free set.
    # The free-set solves take their block of the same -C from
    # _curvature_block: it must equal the Laplacian's free block times
    # -1/(2 pi), entry for entry.
    rng = np.random.default_rng(n)
    cmat = (laplacian_matrix(n) / (2.0 * np.pi)).tocsr()
    w = rng.exponential(size=n * n) * 10.0 ** rng.uniform(-3.0, 6.0, n * n)
    w[rng.random(n * n) < 0.2] = 0.0
    idx = np.flatnonzero(rng.random(n * n) < 0.6)
    block = laplacian_matrix(n)[idx][:, idx] * (-1.0 / (2.0 * np.pi))
    cases = [
        (maenv._newton._LaggedLU(n).matrix(w), sp.diags(w) - cmat),
        (maenv._newton._LaggedLU(n, idx).matrix(w[idx]), sp.diags(w[idx]) - cmat[idx][:, idx]),
        (maenv._newton._curvature_block(n, idx), block.tocsr()),
    ]
    for got, want in cases:
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("weights", ["random", "zero_on_80_percent", "one_site"])
def test_direct_solve_matches_default_superlu(n, weights):
    # the first solve factors with the Newton layer's SuperLU settings (no
    # relaxed supernodes, panels of 10): it must solve the system and agree
    # with a default-settings factorization.  With one weighted site only
    # that site pins the constant mode; at n = 64 two orderings then differ
    # by about 1.1e-12 at rounding (the default settings on the same
    # minimum-degree ordering too), so that case is held to 2e-12.
    rng = np.random.default_rng(n)
    w = rng.uniform(0.0, 1e6, n * n)
    if weights == "zero_on_80_percent":
        w[rng.random(n * n) < 0.8] = 0.0
    elif weights == "one_site":
        w[np.arange(n * n) != rng.integers(n * n)] = 0.0
    g = rng.standard_normal(n * n)
    solver = maenv._newton._LaggedLU(n)
    x = solver.solve(w, g)
    assert solver.factorizations == 1
    m = solver.matrix(w)
    assert np.abs(m @ x - g).max() <= 1e-12 * np.abs(g).max()
    ref = spla.splu(m.tocsc()).solve(g)
    tol = 2e-12 if weights == "one_site" else 1e-12
    assert np.abs(x - ref).max() <= tol * np.abs(ref).max()
    # the same ordering under SuperLU's default supernodes and panels: the
    # settings move only the rounding
    same_order = spla.splu(m.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(g)
    assert np.abs(x - same_order).max() <= 1e-13 * np.abs(same_order).max()


def test_cached_newton_operators_are_read_only():
    neg, diag = maenv._newton._curvature_operators(16)
    assert maenv._newton._curvature_operators(16)[0] is neg
    for arr in (diag, neg.data, neg.indices, neg.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr += 0


_SCHEDULE_DIGEST = """
import hashlib
import numpy as np
from maenv import GridField, MeasureDensity, ThetaDensity, TorusGrid, constant_field
from maenv.obstacle import penalized_step

grid = TorusGrid(128)
theta = ThetaDensity(constant_field(grid, 1.0))
mu = MeasureDensity(constant_field(grid, 1.0))
x, y = grid.coords()
v = GridField(grid, np.where(np.abs(x - 0.5) < 0.25, -1.0, 0.0) + 0.25 * np.abs(y - 0.5))
phi, digest = None, hashlib.sha256()
for k in range(12):
    phi, _ = penalized_step(theta, v, mu, 2.0**k, init=phi)
    digest.update(phi.values.tobytes())

# an envelope at n = 64 whose free-set solve starts from its contact-boundary
# system, kb = 288: the sizes of that block where a dense BLAS or LAPACK
# solve gives different bits at one and two threads
from maenv import obstacle, psor_envelope, random_smooth_field, theta_cosine

boundary_start, sizes = obstacle._boundary_start, []


def recording(r, free):
    e, its = boundary_start(r, free)
    if e is not None:
        sizes.append(int((~free & obstacle.neighbor_sum(free)).sum()))
    return e, its


obstacle._boundary_start = recording
grid = TorusGrid(64)
h = random_smooth_field(grid, np.random.default_rng(0), amplitude=0.3)
digest.update(psor_envelope(theta_cosine(grid), h).u.values.tobytes())
print(digest.hexdigest(), max(sizes, default=0))
"""


def test_newton_fields_do_not_depend_on_blas_threads():
    # a penalized schedule at n = 128, whose vectors are long enough for
    # OpenBLAS to split a dot product between threads, and an envelope whose
    # free-set solve takes the contact-boundary route, run in two fresh
    # interpreters that differ only in the BLAS thread count
    src = str(Path(maenv._newton.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _SCHEDULE_DIGEST],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digest, boundary = run.stdout.split()
        assert int(boundary) >= 150
        digests.append(digest)
    assert digests[0] == digests[1]
