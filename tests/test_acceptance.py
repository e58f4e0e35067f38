"""Acceptance gate: the twelve headline checks at full scale.

Each test runs one criterion at its stated size and tolerance and prints a
single summary line (visible with ``pytest -s``); the ``-v`` listing gives
the pass/fail matrix.  Smaller, faster variants of the same scenarios are
exercised in test_cli.py; unit-level coverage lives in the per-module files.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from maenv import (
    GridField,
    MeasureDensity,
    PenalizationSchedule,
    ThetaDensity,
    TorusGrid,
    constant_field,
    penalized_envelope,
    psor_envelope,
)
from maenv.fields import step_band
from maenv.scenarios import parse_config_text, read_config, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cfg(config, tmp_path):
    start = time.perf_counter()
    manifest = run_scenario(config, tmp_path)
    elapsed = time.perf_counter() - start
    assert manifest.passed
    return manifest, elapsed


def report(num, label, elapsed, extra=""):
    tail = f"  {extra}" if extra else ""
    print(f"criterion {num:02d} {label}: PASS in {elapsed:.2f}s{tail}")


def test_criterion_01_radial_ball_envelope(tmp_path):
    # closed-form envelope of the ball obstacle, boundary atom masses and
    # orthogonality defects 1 - 2^-n for n in {1,2,3}, under one second
    manifest, elapsed = run_cfg(read_config(CONFIGS / "radial-ball.cfg"), tmp_path)
    names = {c.name for c in manifest.checks}
    assert {"envelope_matches_max_formula", "limit_value"} <= names
    for nd in (1, 2, 3):
        assert f"atom_mass_n{nd}" in names
        assert f"orthogonality_defect_n{nd}" in names
    assert elapsed < 1.0
    report(1, "radial-ball", elapsed)


def test_criterion_02_penalized_convergence(tmp_path):
    # smooth + step mixture at n=128: final iterate within 1e-2 (1+|v|) of
    # the oracle, capacity metric below 1e-3 V, lower-bound slack >= -1e-8
    manifest, elapsed = run_cfg(read_config(CONFIGS / "penalized-convergence.cfg"), tmp_path)
    assert {c.name for c in manifest.checks} == {
        "final_sup_distance",
        "lower_bound_min_slack",
        "final_capacity_metric",
    }
    assert elapsed < 60.0
    report(2, "penalized-convergence", elapsed)


def test_criterion_03_divergence_off_measure_support():
    # when the measure vanishes on the obstacle's -1 band the penalized
    # limit flattens to zero off the band while the hard envelope follows
    # the obstacle down; the two limits differ by at least 0.5
    start = time.perf_counter()
    grid = TorusGrid(128)
    theta = ThetaDensity(constant_field(grid, 1.0))
    _, lsc = step_band(grid, 0.25, 0.75)
    x, _ = grid.coords()
    supp = ~((x >= 0.25) & (x <= 0.75))
    mu = MeasureDensity(GridField(grid, supp.astype(float)))
    schedule = PenalizationSchedule(tuple(float(2**k) for k in range(15)))
    run = penalized_envelope(theta, lsc, mu, schedule)
    final = run.iterates[-1]
    plain = psor_envelope(theta, lsc, tol=1e-9).u
    elapsed = time.perf_counter() - start

    gap = float(np.abs(final.values - plain.values).max())
    assert gap >= 0.5
    assert np.abs(final.values[supp]).max() <= 1e-2  # limit vanishes on supp mu
    assert plain.values.min() <= -0.9  # hard envelope is nonconstant
    assert elapsed < 30.0
    report(3, "divergence off support", elapsed, f"sup-gap {gap:.3f}")


def test_criterion_04_orthogonality(tmp_path):
    # 20 continuous obstacles: defect <= 1e-6 V at n=128; step obstacle:
    # defect >= 0.1 V and stable within 20% under grid doubling
    manifest, elapsed = run_cfg(read_config(CONFIGS / "orthogonality.cfg"), tmp_path)
    assert {c.name for c in manifest.checks} == {
        "smooth_defects_vanish",
        "step_defect_floor",
        "step_defect_stable",
    }
    report(4, "orthogonality", elapsed)


def test_criterion_05_minimum_principle(tmp_path):
    # 20 crossing pairs: partition defect <= 1e-3 V on the n=256 grid and
    # the L1 defect halves (within 30%) from n=128 to n=256
    manifest, elapsed = run_cfg(read_config(CONFIGS / "min-principle.cfg"), tmp_path)
    assert {c.name for c in manifest.checks} == {"max_partition_defect", "l1_defect_halves"}
    report(5, "minimum principle", elapsed)


def test_criterion_06_perron(tmp_path):
    # five density configurations at n=128, two supported on strict
    # sub-masks: family limit within 1e-3 of the direct solve, member
    # order immaterial within 2e-3
    config = parse_config_text("scenario = perron\nseed = 0\nn = 128\n")
    manifest, elapsed = run_cfg(config, tmp_path)
    tags = {c.name for c in manifest.checks}
    for tag in ("uniform", "cosine-x", "cosine-xy", "half-plane", "disk"):
        assert f"gap[{tag}]" in tags and f"shuffle[{tag}]" in tags
    report(6, "perron", elapsed)


def test_criterion_07_supersolution_pipeline(tmp_path):
    # smooth / min-of-two-smooth / ramp-step supersolutions at n=256:
    # signed residual <= 1e-3 V and |residual| shrinking from n=128
    config = parse_config_text("scenario = viscosity-pipeline\nseed = 0\nn = 256\n")
    manifest, elapsed = run_cfg(config, tmp_path)
    names = {c.name for c in manifest.checks}
    for member in ("smooth", "min-two-smooth", "ramp-step"):
        assert f"residual[{member}]" in names
        assert f"residual_decreases[{member}]" in names
    report(7, "supersolution pipeline", elapsed)


def test_criterion_08_extremal_contact(tmp_path):
    # density 1 + 2cos(2 pi x) at n=256: the extremal field's measure sits
    # on its zero set and is dominated by the positive part of the density
    config = parse_config_text("scenario = extremal-contact\nseed = 0\nn = 256\n")
    manifest, elapsed = run_cfg(config, tmp_path)
    assert {c.name for c in manifest.checks} == {
        "ma_concentrates_on_flat_positive_part",
        "contact_band_nonempty",
    }
    report(8, "extremal contact", elapsed)


def test_criterion_09_quasi_triangle(tmp_path):
    # 1000 random admissible triples, p in {0.5, 1, 2}: zero violations of
    # the quasi-triangle bound with c = 2^(p+1) + 3 4^(p+1); worst
    # empirical ratios are written to the artifact and echoed here
    manifest, elapsed = run_cfg(read_config(CONFIGS / "quasi-triangle.cfg"), tmp_path)
    payload = json.loads((tmp_path / "quasi_triangle.json").read_text())
    assert payload["violations"] == 0
    assert payload["triples"] == 1000
    for p in (0.5, 1.0, 2.0):
        c_expected = 2.0 ** (p + 1) + 3.0 * 2.0 ** (2 * p + 2)
        key = format(p, "g")
        assert payload["c_test"][key] == c_expected
        assert payload["worst_ratio"][key] < c_expected
    worst = ", ".join(f"p={p}: {r:.3f}" for p, r in sorted(payload["worst_ratio"].items()))
    report(9, "quasi-triangle", elapsed, f"worst ratios {worst}")


def test_criterion_10_capacity_sandwich(tmp_path):
    # exact capacities at n=32, t in {1,2,5}, 10 masks:
    # cap <= generalized cap <= t cap with defect <= 1e-8
    manifest, elapsed = run_cfg(read_config(CONFIGS / "capacity-sandwich.cfg"), tmp_path)
    (check,) = manifest.checks
    assert check.name == "sandwich_defect"
    assert check.value <= 1e-8
    report(10, "capacity sandwich", elapsed, f"worst defect {check.value:.2e}")


def test_criterion_11_local_envelopes(tmp_path):
    # boundary-dip obstacle: envelope over the open ball is identically 0,
    # over the closed ball identically -1, both exact
    manifest, elapsed = run_cfg(read_config(CONFIGS / "local-envelopes.cfg"), tmp_path)
    by_name = {c.name: c for c in manifest.checks}
    assert by_name["interior_envelope_is_zero"].value == 0.0
    assert by_name["closure_envelope_is_minus_one"].value == 0.0
    report(11, "local envelopes", elapsed)


def test_criterion_12_mass_bound(tmp_path):
    # data with half the volume: a 1000-seed search finds no supersolution;
    # data at twice the volume: the constructed solution passes the gate
    manifest, elapsed = run_cfg(read_config(CONFIGS / "mass-bound.cfg"), tmp_path)
    by_name = {c.name: c for c in manifest.checks}
    assert by_name["search_finds_no_supersolution"].value == 0.0
    assert by_name["below_volume_is_infeasible"].passed
    assert by_name["at_volume_is_feasible"].passed
    assert by_name["constructed_field_passes"].passed
    payload = json.loads((tmp_path / "mass_bound.json").read_text())
    assert payload["seeds"] == 1000
    assert payload["passing_fields_found"] == 0
    report(12, "mass bound", elapsed)
