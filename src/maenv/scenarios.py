"""Named experiment scenarios: config parsing, execution, artifacts, manifests.

A scenario binds the library's solvers to a concrete reproducible experiment:
it reads a flat ``key = value`` config, runs the computation with a fixed
seed, writes CSV/JSON artifacts plus a ``manifest.json`` with content hashes,
per-check outcomes and the report of every solver call, and raises
:class:`ScenarioFailure` when any check fails (the manifest is still written,
so failures are inspectable).

Determinism contract: identical config and seed produce byte-identical
artifacts.  Everything downstream of the seeded generator is deterministic,
floats are serialized at full precision, and manifests carry no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._newton import collect_reports
from .energy import (
    capacity,
    cap_convergence_metric,
    extremal_field,
    generalized_capacity,
    quasi_triangle_check,
)
from .equations import perron_solve, pmin_compose, solve_ma_exponential
from .errors import ConfigError, MaenvError, ScenarioFailure
from .fields import (
    random_smooth_field,
    random_theta_psh,
    step_band,
    supersolution_corpus,
    theta_cosine,
)
from .obstacle import (
    PenalizationSchedule,
    orthogonality_defect,
    penalized_envelope,
    psor_envelope,
    psor_envelopes,
)
from .radial import (
    TAxis,
    ball_step_obstacle,
    fs_potential,
    local_envelope_ball,
    orthogonality_defect_radial,
    radial_envelope,
    radial_ma_mass,
)
from .torus import GridField, MeasureDensity, TorusGrid, constant_field, ma_density
from .viscosity import check_supersolution_visc, mass_bound_check, supersolution_envelope_pipeline

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "Check",
    "RunManifest",
    "VerifySummary",
    "parse_config_text",
    "read_config",
    "run_scenario",
    "verify_all",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# per-scenario schema: key -> (type tag, default); types: i = int, f = float.
# Only what a workload varies is a field; each runner's tolerances and
# thresholds belong to its checks and are constants inside the runner.
_SCHEMAS = {
    "radial-ball": {"m": ("i", 4096)},
    "penalized-convergence": {
        "n": ("i", 128),
        "j_max_log2": ("i", 14),
        "smooth_amp": ("f", 0.25),
        "obstacle_x0": ("f", 0.25),
        "obstacle_x1": ("f", 0.75),
    },
    "orthogonality": {"n": ("i", 128), "count": ("i", 20)},
    "min-principle": {"n": ("i", 128), "pairs": ("i", 20)},
    "perron": {"n": ("i", 64)},
    "viscosity-pipeline": {"n": ("i", 128)},
    "extremal-contact": {"n": ("i", 128), "theta_amp": ("f", 2.0)},
    "capacity-sandwich": {"n": ("i", 32), "masks": ("i", 10)},
    "quasi-triangle": {"n": ("i", 64), "triples": ("i", 1000)},
    "local-envelopes": {"m": ("i", 4096)},
    "mass-bound": {"n": ("i", 64), "seeds": ("i", 1000)},
}

SCENARIOS = tuple(sorted(_SCHEMAS))


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration (typed parameters, canonical text)."""

    scenario: str
    seed: int
    params: dict

    def canonical_text(self) -> str:
        lines = [f"scenario = {self.scenario}", f"seed = {self.seed}"]
        for key in sorted(self.params):
            val = self.params[key]
            if isinstance(val, float):
                val = format(val, ".17g")
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take nonnegative seeds only
            raise ConfigError(f"field 'seed' must be >= 0, got {self.seed}")


def _coerce(key: str, raw: str, kind: str):
    try:
        if kind == "i":
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r}: cannot parse {raw!r} as {'int' if kind == 'i' else 'a number'}") from None
    if not np.isfinite(value):
        raise ConfigError(f"field {key!r} must be finite, got {raw!r}")
    return value


def parse_config_text(text: str, scenario: str | None = None) -> ScenarioConfig:
    """Parse and validate a flat ``key = value`` config ('#' starts a comment).

    ``scenario`` may be supplied by the caller (CLI positional); when both
    are present they must agree.  Unknown keys, duplicate keys, type errors,
    non-finite numbers and values a scenario cannot run raise
    :class:`ConfigError` naming the field.
    """
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"duplicate field {key!r}")
        entries[key] = raw

    name = entries.pop("scenario", None) or scenario
    if name is None:
        raise ConfigError("field 'scenario' is required (config key or CLI argument)")
    if scenario is not None and name != scenario:
        raise ConfigError(f"field 'scenario': config says {name!r}, command line says {scenario!r}")
    if name not in _SCHEMAS:
        raise ConfigError(f"field 'scenario': unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")

    seed_raw = entries.pop("seed", "0")
    seed = _coerce("seed", seed_raw, "i")

    schema = _SCHEMAS[name]
    params = {key: default for key, (kind, default) in schema.items()}
    for key, raw in entries.items():
        if key not in schema:
            raise ConfigError(f"field {key!r} is not valid for scenario {name!r}")
        params[key] = _coerce(key, raw, schema[key][0])
    _check_ranges(name, params)
    return ScenarioConfig(name, seed, params)


# lower bounds the library enforces when a scenario builds its objects
# (TAxis needs 64 samples, PenalizationSchedule at least one strength) or
# that keep a scenario's aggregates nonempty
_AT_LEAST = {"m": 64, "j_max_log2": 0, "pairs": 1, "triples": 1, "count": 1, "masks": 1, "seeds": 1}

# radial-ball's atom masses and orthogonality defects meet _ATOM_TOL only
# from this axis resolution on: swept over every admissible m from 64 to
# 20000, some atom check fails at each m below it and none at it or above
_ATOM_TOL = 1e-6
_RADIAL_BALL_MIN_M = 2520


def _check_ranges(name: str, params: dict) -> None:
    """Reject, naming the field, every value a scenario's constructors would reject."""

    def require(ok, key, what):
        if not ok:
            raise ConfigError(f"field {key!r} must be {what}, got {params[key]!r}")

    for key, val in params.items():
        if key in _AT_LEAST:
            require(val >= _AT_LEAST[key], key, f">= {_AT_LEAST[key]}")
    if "j_max_log2" in params:  # the largest strength 2**j_max_log2 must be a float
        require(params["j_max_log2"] <= 1023, "j_max_log2", "<= 1023")
    if "n" in params:
        # every torus grid is even and >= 8; viscosity-pipeline also runs at n/2
        step = 4 if name == "viscosity-pipeline" else 2
        require(
            params["n"] % step == 0 and params["n"] >= 4 * step,
            "n",
            f"a multiple of {step} and >= {4 * step} for scenario {name!r}",
        )
    if name == "radial-ball":
        require(
            params["m"] >= _RADIAL_BALL_MIN_M,
            "m",
            f">= {_RADIAL_BALL_MIN_M} for scenario 'radial-ball' (its atom checks need that resolution)",
        )
    if "m" in params:
        # the ball's atom and the point obstacle sit at t = 0, which the
        # axis samples exactly when m is even
        require(params["m"] % 2 == 0, "m", "even, so that the axis samples t = 0")
    if "obstacle_x0" in params:
        x0, x1 = params["obstacle_x0"], params["obstacle_x1"]
        require(0 <= x0 < x1, "obstacle_x0", "in [0, obstacle_x1)")
        require(x1 <= 1, "obstacle_x1", "<= 1")
    if "theta_amp" in params:  # extremal-contact's density must keep a positive mass
        try:
            theta_cosine(TorusGrid(params["n"]), amplitude=params["theta_amp"])
        except ValueError:
            raise ConfigError(
                f"field 'theta_amp' must leave 1 + theta_amp*cos(2 pi x) a positive mass "
                f"at n = {params['n']}, got {params['theta_amp']!r}"
            ) from None


def read_config(path, scenario: str | None = None) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, scenario)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@dataclass
class Check:
    """One acceptance check: a named value against its threshold."""

    name: str
    passed: bool
    value: float
    threshold: float

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.value = float(self.value)
        self.threshold = float(self.threshold)


@dataclass
class RunManifest:
    scenario: str
    version: str
    config_sha256: str
    seed: int
    checks: list
    files: dict
    reports: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {**asdict(self), "passed": self.passed}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header: str, rows) -> str:
    """CSV text: str cells as they are, every other cell as float(cell) to 17 digits.

    Each row is formatted by one ``%`` string, whose ``%.17g`` writes the
    bytes of ``format(float(cell), ".17g")``.
    """
    lines = [header]
    for row in rows:
        row = tuple(row)
        lines.append(",".join(["%s" if isinstance(c, str) else "%.17g" for c in row]) % row)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the scenarios
# ---------------------------------------------------------------------------


def _scn_radial_ball(p, seed):
    axis = TAxis(m=p["m"])
    h, h_lsc = ball_step_obstacle(axis)
    profile = radial_envelope(h_lsc, axis)
    formula = np.maximum(
        fs_potential(axis).values - 1.0,
        0.5 * axis.ts + 0.5 * np.log(2.0) - 1.0,
    )
    sup_err = float(np.abs(profile.values - formula).max())
    limit = float(profile.values[-1] - 0.5 * axis.ts[-1])
    checks = [
        Check("envelope_matches_max_formula", sup_err <= 1e-6, sup_err, 1e-6),
        Check(
            "limit_value",
            abs(limit - (0.5 * np.log(2.0) - 1.0)) <= 1e-8,
            limit,
            0.5 * np.log(2.0) - 1.0,
        ),
    ]
    files = {"envelope.csv": _csv(
        "t,envelope,formula",
        zip(axis.ts, profile.values, formula),
    )}
    atom_rows = []
    for nd in (1, 2, 3):
        measure = radial_ma_mass(profile, nd)
        atoms = [(t, m) for t, m in measure.atoms if abs(t) <= 2 * axis.dt]
        atom_mass = sum(m for _, m in atoms)
        expected = 1.0 - 2.0**-nd
        defect = orthogonality_defect_radial(h, profile, measure)
        checks.append(Check(f"atom_mass_n{nd}", abs(atom_mass - expected) <= _ATOM_TOL, atom_mass, expected))
        checks.append(Check(f"orthogonality_defect_n{nd}", abs(defect - expected) <= _ATOM_TOL, defect, expected))
        atom_rows.append((nd, atom_mass, expected, defect))
        if nd == 1:
            is_atom = np.isin(np.arange(axis.m - 1), measure.atom_indices)
            files["measure_n1.csv"] = _csv(
                "t,cumulative,mass,is_atom",
                [*zip(axis.ts, measure.cumulative, measure.masses, is_atom),
                 (axis.ts[-1], measure.total_mass, 0.0, 0.0)],
            )
    files["atoms.csv"] = _csv("n,atom_mass,expected,orthogonality_defect", atom_rows)
    return checks, files


def _mixture_obstacle(grid, p):
    """Smooth + step mixture: a cosine capped by a band-shaped drop."""
    x, _ = grid.coords()
    smooth = p["smooth_amp"] * np.cos(2.0 * np.pi * x) + 0.1
    _, lsc = step_band(grid, p["obstacle_x0"], p["obstacle_x1"])
    return GridField(grid, np.minimum(smooth, lsc.values))


def _scn_penalized_convergence(p, seed):
    grid = TorusGrid(p["n"])
    theta = theta_cosine(grid)
    v = _mixture_obstacle(grid, p)
    mu = MeasureDensity(constant_field(grid, 1.0))
    schedule = PenalizationSchedule(tuple(float(2**k) for k in range(p["j_max_log2"] + 1)))
    run = penalized_envelope(theta, v, mu, schedule)

    final_tol = 1e-2 * (1.0 + float(np.abs(v.values).max()))
    cap_tol = 1e-3 * theta.total_mass
    caps = cap_convergence_metric(theta, run.iterates, run.oracle.u, 1e-2)
    checks = [
        Check("final_sup_distance", run.sup_dists[-1] <= final_tol, run.sup_dists[-1], final_tol),
        Check("lower_bound_min_slack", min(run.slacks) >= -1e-8, min(run.slacks), -1e-8),
        Check("final_capacity_metric", caps[-1] <= cap_tol, caps[-1], cap_tol),
    ]
    files = {
        "convergence.csv": _csv(
            "j,sup_dist,l1_dist,min_slack,newton_iters,capacity_metric",
            [
                (j, s, l1, sl, float(rep.iterations), c)
                for j, s, l1, sl, rep, c in zip(
                    run.js, run.sup_dists, run.l1_dists, run.slacks, run.reports, caps
                )
            ],
        )
    }
    return checks, files


def _scn_orthogonality(p, seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(p["n"])
    theta = theta_cosine(grid)
    vol = theta.total_mass
    smooth = [
        random_smooth_field(grid, rng, amplitude=float(rng.uniform(0.2, 1.0)))
        for _ in range(p["count"])
    ]
    true_vals, lsc_vals = step_band(grid, 0.25, 0.75)
    # the smooth obstacles and the step at n share one stack of sweeps
    *sols, step_sol = psor_envelopes(theta, [*smooth, lsc_vals])
    rows, worst = [], 0.0
    for k, (h, sol) in enumerate(zip(smooth, sols)):
        d = orthogonality_defect(theta, h, sol.u)
        worst = max(worst, abs(d))
        rows.append(("smooth", float(k), d))
    step_defects = {p["n"]: orthogonality_defect(theta, true_vals, step_sol.u)}
    rows.append(("step", float(p["n"]), step_defects[p["n"]]))
    fine = TorusGrid(2 * p["n"])
    th = theta_cosine(fine)
    true_vals, lsc_vals = step_band(fine, 0.25, 0.75)
    step_defects[fine.n] = orthogonality_defect(th, true_vals, psor_envelope(th, lsc_vals).u)
    rows.append(("step", float(fine.n), step_defects[fine.n]))
    ratio = step_defects[2 * p["n"]] / step_defects[p["n"]]
    tol, floor, drift = 1e-6 * vol, 0.1 * vol, 0.2
    checks = [
        Check("smooth_defects_vanish", worst <= tol, worst, tol),
        Check("step_defect_floor", step_defects[p["n"]] >= floor, step_defects[p["n"]], floor),
        Check("step_defect_stable", 1.0 - drift <= ratio <= 1.0 + drift, ratio, drift),
    ]
    return checks, {"defects.csv": _csv("kind,id,defect", rows)}


def _crossing_pair(theta, rng):
    """Two admissible fields crossing transversally (centered, comparable size)."""
    u = random_theta_psh(theta, rng)
    w = random_theta_psh(theta, rng)
    uc = u.values - u.values.mean()
    wc = w.values - w.values.mean()
    return GridField(theta.grid, uc), GridField(theta.grid, wc)


def _scn_min_principle(p, seed):
    vol = 1.0
    results = {}
    rows = []
    for n in (p["n"], 2 * p["n"]):
        grid = TorusGrid(n)
        theta = theta_cosine(grid)
        pair_rng = np.random.default_rng(seed)  # same pairs at both resolutions
        max_defects, l1_defects = [], []
        for k in range(p["pairs"]):
            u, w = _crossing_pair(theta, pair_rng)
            res = pmin_compose(theta, u, w)
            max_defects.append(res.max_defect)
            l1_defects.append(res.l1_defect)
            rows.append((float(n), float(k), res.max_defect, res.l1_defect))
        results[n] = (max(max_defects), max(l1_defects))
    fine_max, fine_l1 = results[2 * p["n"]]
    ratio = fine_l1 / results[p["n"]][1]
    tol = 1e-3 * vol
    lo, hi = 0.5 * (1 - 0.3), 0.5 * (1 + 0.3)
    checks = [
        Check("max_partition_defect", fine_max <= tol, fine_max, tol),
        Check("l1_defect_halves", lo <= ratio <= hi, ratio, 0.5),
    ]
    return checks, {"partition.csv": _csv("n,pair,max_defect,l1_defect", rows)}


def _perron_configs(grid, x, y):
    """Five (theta-amplitude, mu-values) configurations, two with strict sub-mask support."""
    return [
        ("uniform", 0.0, np.ones_like(x)),
        ("cosine-x", 0.0, 1.0 + 0.5 * np.cos(2.0 * np.pi * x)),
        ("cosine-xy", 0.5, 1.5 + np.cos(2.0 * np.pi * (x + y))),
        ("half-plane", 0.0, np.where(x < 0.5, 2.0, 0.0)),
        ("disk", 0.0, np.where((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.09, 3.0, 0.0)),
    ]


def _scn_perron(p, seed):
    grid = TorusGrid(p["n"])
    x, y = grid.coords()
    rows, checks = [], []
    for tag, theta_amp, mu_vals in _perron_configs(grid, x, y):
        theta = theta_cosine(grid, amplitude=theta_amp)
        mu = MeasureDensity(GridField(grid, mu_vals))
        exact, _ = solve_ma_exponential(theta, mu)
        members = []
        for frac in (0.25, 0.5, 0.75, 1.0):
            sel = (y < frac) & (mu_vals > 0)
            if not sel.any():
                continue
            restricted = np.where(sel, mu_vals, 0.0)
            psi, _ = solve_ma_exponential(theta, MeasureDensity(GridField(grid, restricted)))
            members.append(psi)
        supp = mu_vals > 0
        ratio_min = float((theta.density.values[supp] / mu_vals[supp]).min())
        u0 = constant_field(grid, float(np.log(ratio_min) - 0.1))
        sol, hist = perron_solve(theta, mu, members, u0)
        sol_r, _ = perron_solve(theta, mu, members[::-1], u0)
        gap = float(np.abs(sol.values - exact.values).max())
        shuffle = float(np.abs(sol.values - sol_r.values).max())
        checks.append(Check(f"gap[{tag}]", gap <= 1e-3, gap, 1e-3))
        checks.append(Check(f"shuffle[{tag}]", shuffle <= 2e-3, shuffle, 2e-3))
        for h in hist:
            # round k folds in member k, so member_id repeats the round
            rows.append(
                (tag, float(h.round), float(h.round),
                 h.sup_gap if np.isfinite(h.sup_gap) else -1.0,
                 h.supersolution_residual, h.equation_residual)
            )
    files = {"perron_history.csv": _csv(
        "config,round,member_id,sup_gap,supersolution_residual,equation_residual", rows
    )}
    return checks, files


def _scn_viscosity_pipeline(p, seed):
    vol = 1.0
    rows, checks = [], []
    residuals = {}
    for n in (p["n"] // 2, p["n"]):
        grid = TorusGrid(n)
        theta = theta_cosine(grid)
        for datum in supersolution_corpus(grid):
            res = supersolution_envelope_pipeline(theta, datum.v, datum.f, visc_tol=datum.gate_tol)
            rows.append(
                (datum.name, float(n), datum.gate_tol, -res.input_report.value,
                 res.checked_fraction, res.residual)
            )
            residuals.setdefault(datum.name, {})[n] = res.residual
    tol = 1e-3 * vol
    for name, by_n in residuals.items():
        fine = by_n[p["n"]]
        coarse = by_n[p["n"] // 2]
        checks.append(Check(f"residual[{name}]", fine <= tol, fine, tol))
        checks.append(
            Check(f"residual_decreases[{name}]", abs(fine) < abs(coarse), abs(fine) / abs(coarse), 1.0)
        )
    files = {"pipeline.csv": _csv(
        "member,n,gate_tol,worst_margin,checked_fraction,residual", rows
    )}
    return checks, files


def _scn_extremal_contact(p, seed):
    grid = TorusGrid(p["n"])
    theta = theta_cosine(grid, amplitude=p["theta_amp"])
    vol = theta.total_mass
    vt = extremal_field(theta)
    ma = ma_density(theta, vt).values
    flat = np.abs(vt.values) < 1e-6
    excess = float((ma - flat * np.maximum(theta.density.values, 0.0)).max())
    tol = 1e-6 * vol
    contact_fraction = float(flat.mean())
    checks = [
        Check("ma_concentrates_on_flat_positive_part", excess <= tol, excess, tol),
        Check("contact_band_nonempty", contact_fraction > 0.0, contact_fraction, 0.0),
    ]
    files = {
        "extremal.csv": _csv(
            "x,v_theta,ma,theta",
            [
                (i * grid.h, vt.values[i, 0], ma[i, 0], theta.density.values[i, 0])
                for i in range(grid.n)
            ],
        )
    }
    return checks, files


def _sandwich_masks(grid, count, rng):
    x, y = grid.coords()
    masks = [x < 0.25, (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.04]
    while len(masks) < count:
        m = rng.random((grid.n, grid.n)) < rng.uniform(0.05, 0.4)
        if m.any():
            masks.append(m)
    return masks[:count]


def _scn_capacity_sandwich(p, seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(p["n"])
    theta = theta_cosine(grid)
    vt = extremal_field(theta)
    rows = []
    worst = 0.0
    for k, mask in enumerate(_sandwich_masks(grid, p["masks"], rng)):
        base = capacity(theta, mask, "exact", vt).value
        for t in (1.0, 2.0, 5.0):
            if t == 1.0:  # the obstacle where(E, V - t, V) is base's own
                gen = base
            else:
                gen = generalized_capacity(theta, GridField(grid, vt.values - t), vt, mask, "exact").value
            lo_defect = base - gen
            hi_defect = gen - t * base
            worst = max(worst, lo_defect, hi_defect)
            rows.append((float(k), t, base, gen, lo_defect, hi_defect))
    checks = [Check("sandwich_defect", worst <= 1e-8, worst, 1e-8)]
    files = {"sandwich.csv": _csv(
        "mask,t,cap,generalized_cap,lower_defect,upper_defect", rows
    )}
    return checks, files


def _scn_quasi_triangle(p, seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(p["n"])
    theta = theta_cosine(grid)
    p_values = (0.5, 1.0, 2.0)
    violations = 0
    worst = {pv: 0.0 for pv in p_values}
    c_test = {}
    for _ in range(p["triples"]):
        u = random_theta_psh(theta, rng)
        v = random_theta_psh(theta, rng)
        w = random_theta_psh(theta, rng)
        for pv, r in zip(p_values, quasi_triangle_check(theta, u, v, w, p_values)):
            c_test[pv] = r.c_test
            violations += not r.passed
            if np.isfinite(r.ratio):
                worst[pv] = max(worst[pv], r.ratio)
    checks = [Check("zero_violations", violations == 0, float(violations), 0.0)]
    payload = {
        "seed": seed,
        "triples": p["triples"],
        "grid": p["n"],
        "violations": violations,
        "worst_ratio": {format(pv, "g"): worst[pv] for pv in p_values},
        "c_test": {format(pv, "g"): c_test[pv] for pv in p_values},
    }
    files = {"quasi_triangle.json": json.dumps(payload, indent=2, sort_keys=True) + "\n"}
    return checks, files


def _scn_local_envelopes(p, seed):
    axis = TAxis(m=p["m"])
    h = np.where(axis.ts == 0.0, -1.0, 0.0)
    interior = local_envelope_ball(h, axis, "interior")
    closure = local_envelope_ball(h, axis, "closure")
    vi = float(np.abs(interior.values).max())
    vc = float(np.abs(closure.values + 1.0).max())
    checks = [
        Check("interior_envelope_is_zero", vi == 0.0, vi, 0.0),
        Check("closure_envelope_is_minus_one", vc == 0.0, vc, 0.0),
    ]
    # each row: the envelope's expected value and its computed sup deviation
    files = {"local_envelopes.csv": _csv("mode,value,deviation", [("interior", 0, vi), ("closure", -1, vc)])}
    return checks, files


def _scn_mass_bound(p, seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(p["n"])
    theta = theta_cosine(grid)
    f_half = constant_field(grid, 0.5)
    found = 0
    for _ in range(p["seeds"]):
        v = random_smooth_field(grid, rng, amplitude=float(rng.uniform(0.05, 2.0)))
        rep, _ = check_supersolution_visc(theta, v, f_half, tol=1e-8, exponential=False)
        found += rep.passed
    x, _ = grid.coords()
    f_big = GridField(grid, 2.0 + 0.5 * np.cos(2.0 * np.pi * x))
    sol, _ = solve_ma_exponential(theta, MeasureDensity(f_big))
    gate, _ = check_supersolution_visc(theta, sol, f_big, tol=1e-5)
    checks = [
        Check("below_volume_is_infeasible", not mass_bound_check(theta, f_half), 0.5, 1.0),
        Check("search_finds_no_supersolution", found == 0, float(found), 0.0),
        Check("at_volume_is_feasible", mass_bound_check(theta, f_big), 2.0, 1.0),
        Check("constructed_field_passes", gate.passed, -gate.value, -1e-5),
    ]
    payload = {
        "seed": seed,
        "seeds": p["seeds"],
        "passing_fields_found": found,
        "constructed_margin": -gate.value,
    }
    files = {"mass_bound.json": json.dumps(payload, indent=2, sort_keys=True) + "\n"}
    return checks, files


_RUNNERS = {
    "radial-ball": _scn_radial_ball,
    "penalized-convergence": _scn_penalized_convergence,
    "orthogonality": _scn_orthogonality,
    "min-principle": _scn_min_principle,
    "perron": _scn_perron,
    "viscosity-pipeline": _scn_viscosity_pipeline,
    "extremal-contact": _scn_extremal_contact,
    "capacity-sandwich": _scn_capacity_sandwich,
    "quasi-triangle": _scn_quasi_triangle,
    "local-envelopes": _scn_local_envelopes,
    "mass-bound": _scn_mass_bound,
}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _write_output(path: Path, data: bytes) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def run_scenario(config: ScenarioConfig, out_dir) -> RunManifest:
    """Run one scenario, write its artifacts and manifest, return the manifest.

    Raises :class:`ScenarioFailure` when a check fails; the manifest and all
    artifacts are written first, so a failing run remains fully inspectable.
    A solver error inside the scenario becomes a failed ``solver_converged``
    check whose value is the error's residual (-1 when it carries none) and
    whose manifest lists no artifacts.  The manifest's ``reports`` list every
    solver report built during the run, failed ones included, in call order.
    An output directory that cannot be created raises :class:`ConfigError`
    before the scenario runs, and so does an artifact or manifest file that
    cannot be written once it has run.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None

    error = None
    try:
        with collect_reports() as reports:
            checks, files = _RUNNERS[config.scenario](config.params, config.seed)
    except ConfigError:
        raise
    except MaenvError as exc:
        error = exc
        residual = getattr(exc, "residual", None)
        value = float(residual) if residual is not None and np.isfinite(residual) else -1.0
        checks, files = [Check("solver_converged", False, value, 0.0)], {}

    hashes = {}
    for name, content in sorted(files.items()):
        data = content.encode() if isinstance(content, str) else content
        _write_output(out / name, data)
        hashes[name] = hashlib.sha256(data).hexdigest()

    manifest = RunManifest(
        scenario=config.scenario,
        version=__version__,
        config_sha256=hashlib.sha256(config.canonical_text().encode()).hexdigest(),
        seed=config.seed,
        checks=checks,
        files=hashes,
        reports=[{k: v for k, v in vars(r).items() if k not in ("history", "damping")} for r in reports],
    )
    _write_output(out / "manifest.json", manifest.to_json().encode())
    if not manifest.passed:
        failed = [c.name for c in checks if not c.passed]
        cause = f"{type(error).__name__}: {error}; " if error is not None else ""
        raise ScenarioFailure(
            f"scenario {config.scenario!r}: checks failed: {', '.join(failed)} "
            f"({cause}manifest written to {out / 'manifest.json'})"
        ) from error
    return manifest


@dataclass
class VerifySummary:
    rows: list  # (config file, scenario, passed, detail)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok, _ in self.rows)

    @property
    def success(self) -> bool:
        return self.failed == 0

    def matrix(self) -> str:
        lines = [f"{'scenario':24s} {'config':28s} result"]
        for cfg, name, ok, detail in self.rows:
            lines.append(f"{name:24s} {cfg:28s} {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
        lines.append(
            f"{self.total} scenario(s), {self.total - self.failed} passed, {self.failed} failed"
        )
        return "\n".join(lines)


def _run_config_file(path: Path, out_root: Path):
    config = read_config(path)
    try:
        run_scenario(config, out_root / path.stem)
        return (path.name, config.scenario, True, "")
    except ScenarioFailure as exc:
        return (path.name, config.scenario, False, str(exc).split("(")[0].strip())


def verify_all(config_dir, out_root=None) -> VerifySummary:
    """Run every ``*.cfg`` in a directory; aggregate failures into the summary.

    The configs run in worker processes, one per config up to the number of
    CPUs (scenarios share no state), and the rows come back in sorted config
    order.  An empty directory yields an empty, successful summary and
    starts no workers.  Malformed configs raise :class:`ConfigError` before
    any run.
    """
    config_dir = Path(config_dir)
    if not config_dir.is_dir():
        raise ConfigError(f"config directory {config_dir} does not exist")
    out_root = Path(out_root) if out_root is not None else config_dir / "out"
    paths = sorted(config_dir.glob("*.cfg"))
    for path in paths:  # fail fast on malformed configs, before any runs
        read_config(path)
    if not paths:
        return VerifySummary([])
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers: forking a process that holds BLAS threads is unsafe
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(len(paths), os.cpu_count() or 1), mp_context=spawn) as pool:
        rows = list(pool.map(_run_config_file, paths, [out_root] * len(paths)))
    return VerifySummary(rows)
