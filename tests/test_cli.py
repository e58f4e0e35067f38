"""Config parsing, scenario runner plumbing, manifests, and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import maenv
import maenv.scenarios
from maenv import _newton
from maenv.cli import main
from maenv.errors import ConfigError, ScenarioFailure
from maenv.scenarios import (
    _RADIAL_BALL_MIN_M,
    SCENARIOS,
    ScenarioConfig,
    parse_config_text,
    read_config,
    run_scenario,
    verify_all,
)
from maenv.fields import theta_cosine
from maenv.obstacle import psor_envelope
from maenv.radial import local_envelope_ball
from maenv.torus import TorusGrid, constant_field

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

# small-size parameterizations used for smoke runs; every scenario must
# still pass all of its checks at these sizes
SMOKE = {
    "radial-ball": "seed = 0\n",
    "penalized-convergence": "seed = 0\nn = 32\nj_max_log2 = 8\n",
    "orthogonality": "seed = 5\nn = 32\ncount = 2\n",
    "min-principle": "seed = 9\nn = 32\npairs = 2\n",
    "perron": "seed = 0\nn = 32\n",
    "viscosity-pipeline": "seed = 0\nn = 64\n",
    "extremal-contact": "seed = 0\nn = 32\n",
    "capacity-sandwich": "seed = 3\nn = 32\nmasks = 2\n",
    "quasi-triangle": "seed = 2\nn = 16\ntriples = 10\n",
    "local-envelopes": "seed = 0\n",
    "mass-bound": "seed = 11\nn = 32\nseeds = 20\n",
}

EXPECTED_ARTIFACTS = {
    "radial-ball": {"envelope.csv", "atoms.csv", "measure_n1.csv"},
    "penalized-convergence": {"convergence.csv"},
    "orthogonality": {"defects.csv"},
    "min-principle": {"partition.csv"},
    "perron": {"perron_history.csv"},
    "viscosity-pipeline": {"pipeline.csv"},
    "extremal-contact": {"extremal.csv"},
    "capacity-sandwich": {"sandwich.csv"},
    "quasi-triangle": {"quasi_triangle.json"},
    "local-envelopes": {"local_envelopes.csv"},
    "mass-bound": {"mass_bound.json"},
}

# three penalization strengths are too few for the iterates to reach the envelope
FAILING_CFG = "scenario = penalized-convergence\nn = 16\nj_max_log2 = 2\n"
FAILED_CHECKS = ["final_sup_distance", "final_capacity_metric"]

# strengths up to 2**1023: damped Newton stalls inside the scenario
STALLING_CFG = "scenario = penalized-convergence\nn = 16\nj_max_log2 = 1023\n"

# well-typed values that the scenario cannot run: an axis too coarse for the
# atom checks' 1e-6, a density with no positive mass
UNRUNNABLE_CFGS = [
    ("radial-ball", "m = 2048", f"'m' must be >= {_RADIAL_BALL_MIN_M}"),
    ("extremal-contact", "theta_amp = 1e17", "theta_amp"),
]


def smoke_text(name):
    return f"scenario = {name}\n" + SMOKE[name]


class TestConfigParsing:
    def test_comments_whitespace_and_defaults(self):
        cfg = parse_config_text(
            "# experiment\n"
            "scenario = quasi-triangle   # trailing comment\n"
            "\n"
            "  seed =  3\n"
            "triples = 10\n"
        )
        assert cfg.scenario == "quasi-triangle"
        assert cfg.seed == 3
        assert cfg.params["triples"] == 10
        assert cfg.params == {"n": 64, "triples": 10}  # n from the schema default

    def test_scenario_from_caller(self):
        cfg = parse_config_text("seed = 1\n", scenario="local-envelopes")
        assert cfg.scenario == "local-envelopes"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("seed = 0\n", "scenario"),
            ("scenario = no-such-thing\n", "unknown scenario"),
            ("scenario = perron\nn = 64\nn = 32\n", "duplicate"),
            ("scenario = perron\nwavelength = 3\n", "wavelength"),
            ("scenario = perron\nn = sixty-four\n", "'n'"),
            # a runner constant is no field
            ("scenario = perron\ngap_tol = 1e-3\n", "'gap_tol' is not valid for scenario 'perron'"),
            ("scenario = perron\nbroken line\n", "key = value"),
            ("scenario = perron\nn =\n", "empty"),
            ("scenario = radial-ball\nm = 1\n", "'m'"),
            ("scenario = local-envelopes\nm = 8\n", "'m'"),
            ("scenario = local-envelopes\nm = 65\n", "'m'"),
            ("scenario = radial-ball\nm = 4095\n", "'m'"),
            ("scenario = radial-ball\nm = 2518\n", f"'m' must be >= {_RADIAL_BALL_MIN_M}"),
            ("scenario = extremal-contact\nn = 16\ntheta_amp = 1e17\n", "theta_amp"),
            ("scenario = extremal-contact\nn = 32\ntheta_amp = 1e17\n", "theta_amp"),
            ("scenario = extremal-contact\nn = 64\ntheta_amp = 1e16\n", "theta_amp"),
            ("scenario = min-principle\npairs = 0\n", "pairs"),
            ("scenario = quasi-triangle\ntriples = 0\n", "triples"),
            ("scenario = capacity-sandwich\nmasks = 0\n", "masks"),
            ("scenario = capacity-sandwich\nmasks = -2\n", "masks"),
            ("scenario = orthogonality\ncount = 0\n", "count"),
            ("scenario = mass-bound\nseeds = 0\n", "seeds"),
            ("scenario = penalized-convergence\nj_max_log2 = -1\n", "j_max_log2"),
            ("scenario = penalized-convergence\nobstacle_x0 = 0.9\n", "obstacle_x0"),
            ("scenario = penalized-convergence\nobstacle_x1 = 1.5\n", "obstacle_x1"),
            ("scenario = orthogonality\nseed = -1\n", "seed"),
            ("scenario = penalized-convergence\nsmooth_amp = nan\n", "smooth_amp"),
            ("scenario = penalized-convergence\nobstacle_x1 = inf\n", "obstacle_x1"),
            ("scenario = penalized-convergence\nj_max_log2 = 1024\n", "j_max_log2"),
            ("scenario = extremal-contact\ntheta_amp = nan\n", "theta_amp"),
        ],
    )
    def test_rejections_name_the_field(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config_text(text)

    def test_capacity_sandwich_accepts_a_large_grid(self, tmp_path):
        cfg = parse_config_text("scenario = capacity-sandwich\nn = 128\nmasks = 1\n")
        assert cfg.params["n"] == 128
        assert run_scenario(cfg, tmp_path).passed

    def test_radial_ball_passes_at_its_smallest_m(self, tmp_path):
        cfg = parse_config_text(f"scenario = radial-ball\nm = {_RADIAL_BALL_MIN_M}\n")
        assert run_scenario(cfg, tmp_path).passed

    @pytest.mark.parametrize("scenario", ["local-envelopes", "radial-ball"])
    def test_an_even_m_that_t_min_plus_k_dt_misses_zero_at_parses(self, scenario):
        # t_min + k*dt rounds past t = 0 at m = 4200; the axis samples it exactly
        cfg = parse_config_text(f"scenario = {scenario}\nm = 4200\n")
        assert cfg.params["m"] == 4200

    # the other side of each limit: the largest theta_amp power of ten that
    # keeps a positive mass per n, and the radial-ball floor, which
    # local-envelopes does not share
    @pytest.mark.parametrize(
        "text",
        [
            f"scenario = radial-ball\nm = {_RADIAL_BALL_MIN_M}\n",
            "scenario = local-envelopes\nm = 64\n",
            "scenario = extremal-contact\nn = 16\ntheta_amp = 1e16\n",
            "scenario = extremal-contact\nn = 32\ntheta_amp = 1e16\n",
            "scenario = extremal-contact\nn = 64\ntheta_amp = 1e15\n",
            "scenario = extremal-contact\nn = 128\ntheta_amp = 1e16\n",
        ],
    )
    def test_values_at_a_limit_are_accepted(self, text):
        cfg = parse_config_text(text)
        for line in text.splitlines()[1:]:
            key, _, raw = line.partition(" = ")
            assert cfg.params[key] == float(raw)

    # below the floor the atom checks really fail: for n = 1 and 2 just
    # under it, for every n further down
    @pytest.mark.parametrize(
        "m, failed",
        [
            (_RADIAL_BALL_MIN_M - 2, [f"{c}_n{nd}" for nd in (1, 2) for c in ("atom_mass", "orthogonality_defect")]),
            (2048, [f"{c}_n{nd}" for nd in (1, 2, 3) for c in ("atom_mass", "orthogonality_defect")]),
        ],
    )
    def test_radial_ball_fails_below_its_smallest_m(self, tmp_path, m, failed):
        cfg = ScenarioConfig("radial-ball", 0, {"m": m})  # past the schema's floor
        with pytest.raises(ScenarioFailure, match=", ".join(failed)):
            run_scenario(cfg, tmp_path)

    def test_caller_config_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="command line"):
            parse_config_text("scenario = perron\n", scenario="radial-ball")

    def test_shipped_configs_cover_every_scenario(self):
        paths = sorted(CONFIGS_DIR.glob("*.cfg"))
        names = []
        for path in paths:
            cfg = read_config(path)
            assert cfg.scenario == path.stem
            names.append(cfg.scenario)
        assert sorted(names) == sorted(SCENARIOS)


class TestRunScenario:
    def test_manifest_lists_and_hashes_every_artifact(self, tmp_path):
        cfg = parse_config_text(smoke_text("quasi-triangle"))
        manifest = run_scenario(cfg, tmp_path)
        assert manifest.passed
        on_disk = {p.name for p in tmp_path.iterdir()}
        assert on_disk == set(manifest.files) | {"manifest.json"}
        for name, digest in manifest.files.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["passed"] is True
        assert payload["seed"] == cfg.seed
        assert payload["config_sha256"] == hashlib.sha256(
            cfg.canonical_text().encode()
        ).hexdigest()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        # min-principle calls PSOR, so its manifest carries report rows too
        for name in ("quasi-triangle", "min-principle"):
            cfg = parse_config_text(smoke_text(name))
            a, b = tmp_path / name / "a", tmp_path / name / "b"
            run_scenario(cfg, a)
            run_scenario(cfg, b)
            names = {p.name for p in a.iterdir()}
            assert names == {p.name for p in b.iterdir()}
            for file in names:
                assert (a / file).read_bytes() == (b / file).read_bytes()

    def test_failing_check_raises_but_still_writes_manifest(self, tmp_path):
        cfg = parse_config_text(FAILING_CFG)
        with pytest.raises(ScenarioFailure, match=", ".join(FAILED_CHECKS)):
            run_scenario(cfg, tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["passed"] is False
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed == FAILED_CHECKS


    @pytest.mark.parametrize("shift, written", [(0.0, "0"), (0.125, "0.125")])
    def test_local_envelopes_csv_carries_the_computed_deviation(self, tmp_path, monkeypatch, shift, written):
        # an interior envelope shifted by 1/8 fails its check, and the
        # artifact written before the failure shows the deviation
        def shifted(h, axis, mode):
            env = local_envelope_ball(h, axis, mode)
            return replace(env, values=env.values + shift) if mode == "interior" else env

        monkeypatch.setattr(maenv.scenarios, "local_envelope_ball", shifted)
        cfg = parse_config_text(smoke_text("local-envelopes"))
        if shift:
            with pytest.raises(ScenarioFailure, match="interior_envelope_is_zero"):
                run_scenario(cfg, tmp_path)
        else:
            run_scenario(cfg, tmp_path)
        rows = (tmp_path / "local_envelopes.csv").read_text().splitlines()
        assert rows == ["mode,value,deviation", f"interior,0,{written}", "closure,-1,0"]


def manifest_reports(out):
    return json.loads((out / "manifest.json").read_text())["reports"]


class TestManifestReports:
    def test_every_psor_solve_is_listed(self, tmp_path):
        # two pairs at n = 32 and at n = 64: one pmin_compose PSOR each
        run_scenario(parse_config_text(smoke_text("min-principle")), tmp_path)
        rows = manifest_reports(tmp_path)
        assert len(rows) == 4
        assert all(r["method"] == "psor" and r["converged"] for r in rows)
        assert set(rows[0]) == {
            "method", "iterations", "cg_iterations", "factorizations", "residual", "converged",
            "coarse_sweeps",
        }

    def test_failed_newton_solve_is_listed(self, tmp_path):
        with pytest.raises(ScenarioFailure, match="NewtonStall"):
            run_scenario(parse_config_text(STALLING_CFG), tmp_path)
        rows = manifest_reports(tmp_path)
        outcomes = [(r["method"], r["converged"]) for r in rows]
        # the PSOR oracle, the fixed-point Newton solve, then the penalized
        # steps up to the stalled one
        assert outcomes[:2] == [("psor", True), ("newton", True)]
        assert {method for method, _ in outcomes[2:]} == {"newton"}
        assert outcomes[-1] == ("newton", False)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert rows[-1]["residual"] == payload["checks"][0]["value"] > 0.0

    def test_a_second_run_starts_with_an_empty_list(self, tmp_path):
        cfg = parse_config_text(smoke_text("min-principle"))
        first = run_scenario(cfg, tmp_path / "a").reports
        assert run_scenario(cfg, tmp_path / "b").reports == first
        assert run_scenario(parse_config_text(smoke_text("quasi-triangle")), tmp_path / "c").reports == []

    def test_solver_outside_a_run_records_nothing(self):
        grid = TorusGrid(8)
        theta, h = theta_cosine(grid, 1.0), constant_field(grid, 0.0)
        with _newton.collect_reports() as collected:
            psor_envelope(theta, h)
        assert len(collected) == 1
        psor_envelope(theta, h)
        assert len(collected) == 1 and _newton._COLLECTED.get() is None


class TestCliRun:
    def test_run_prints_checks_and_exits_zero(self, tmp_path, capsys):
        cfg_file = tmp_path / "qt.cfg"
        cfg_file.write_text(smoke_text("quasi-triangle"))
        out = tmp_path / "out"
        assert main(["run", "quasi-triangle", "--config", str(cfg_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS zero_violations" in stdout
        assert "manifest.json" in stdout
        assert (out / "manifest.json").exists()

    def test_failing_scenario_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(FAILING_CFG)
        rc = main(["run", "penalized-convergence", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert ", ".join(FAILED_CHECKS) in capsys.readouterr().err

    def test_config_errors_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "qt.cfg"
        cfg_file.write_text(smoke_text("quasi-triangle"))
        rc = main(["run", "radial-ball", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, n", [("perron", 7), ("perron", 6), ("min-principle", 0), ("viscosity-pipeline", 12)]
    )
    def test_invalid_grid_size_exits_two(self, tmp_path, capsys, scenario, n):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"scenario = {scenario}\nn = {n}\n")
        out = tmp_path / "o"
        rc = main(["run", scenario, "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'n'" in err
        assert not out.exists()

    def test_out_of_range_value_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("scenario = radial-ball\nm = 4095\n")
        out = tmp_path / "o"
        rc = main(["run", "radial-ball", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, line, field", UNRUNNABLE_CFGS)
    def test_unrunnable_value_exits_two(self, tmp_path, capsys, scenario, line, field):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"scenario = {scenario}\n{line}\n")
        out = tmp_path / "o"
        rc = main(["run", scenario, "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_solver_error_exits_one_with_manifest(self, tmp_path, capsys):
        cfg_file = tmp_path / "stall.cfg"
        cfg_file.write_text(STALLING_CFG)
        out = tmp_path / "out"
        assert main(["run", "penalized-convergence", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert "NewtonStall" in capsys.readouterr().err
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["passed"] is False
        assert payload["files"] == {}
        [check] = payload["checks"]
        assert check["name"] == "solver_converged" and check["passed"] is False
        assert check["value"] > 0.0  # the stalled residual

    def test_seed_override_from_environment(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "qt.cfg"
        cfg_file.write_text(smoke_text("quasi-triangle"))
        monkeypatch.setenv("MAENV_SEED", "7")
        out = tmp_path / "out"
        assert main(["run", "quasi-triangle", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_exits_two(self, tmp_path, capsys, kind):
        cfg_file = tmp_path / "perron.cfg"
        if kind == "directory":
            cfg_file.mkdir()
        elif kind == "not-utf8":
            cfg_file.write_bytes(b"scenario = perron\n# \xff\xfe\n")
        out = tmp_path / "o"
        rc = main(["run", "perron", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(cfg_file) in err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_path_through_a_file_exits_two(self, tmp_path, capsys, below):
        cfg_file = tmp_path / "local.cfg"
        cfg_file.write_text(smoke_text("local-envelopes"))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / below if below else blocker
        rc = main(["run", "local-envelopes", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err
        assert blocker.read_text() == ""

    def test_bad_seed_override_exits_two(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "qt.cfg"
        cfg_file.write_text(smoke_text("quasi-triangle"))
        monkeypatch.setenv("MAENV_SEED", "nope")
        rc = main(["run", "quasi-triangle", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "MAENV_SEED" in capsys.readouterr().err


class TestVerifyAll:
    def test_runs_every_config_and_reports_matrix(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "qt.cfg").write_text(smoke_text("quasi-triangle"))
        (cfg_dir / "local.cfg").write_text(smoke_text("local-envelopes"))
        rc = main(["verify-all", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "2 scenario(s), 2 passed, 0 failed" in stdout
        assert (tmp_path / "out" / "qt" / "manifest.json").exists()
        assert (tmp_path / "out" / "local" / "manifest.json").exists()

    def test_python_dash_m_runs_verify_all(self, tmp_path):
        # the package runs as a module, not only through the installed script
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "local.cfg").write_text(smoke_text("local-envelopes"))
        src = str(Path(maenv.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "maenv", "verify-all", str(cfg_dir), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "1 scenario(s), 1 passed, 0 failed" in run.stdout
        assert (tmp_path / "out" / "local" / "manifest.json").exists()

    def test_empty_directory_is_a_successful_noop(self, tmp_path):
        summary = verify_all(tmp_path)
        assert summary.success
        assert summary.total == 0
        assert "0 scenario(s), 0 passed, 0 failed" in summary.matrix()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            verify_all(tmp_path / "nowhere")

    def test_malformed_config_aborts_before_any_run(self, tmp_path):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "a_good.cfg").write_text(smoke_text("quasi-triangle"))
        (cfg_dir / "z_bad.cfg").write_text("scenario = radial-ball\nm = 4095\n")
        with pytest.raises(ConfigError, match="'m'"):
            verify_all(cfg_dir, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_non_finite_number_exits_two_before_any_run(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "a_good.cfg").write_text(smoke_text("quasi-triangle"))
        (cfg_dir / "z_nan.cfg").write_text("scenario = extremal-contact\ntheta_amp = nan\n")
        rc = main(["verify-all", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "theta_amp" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, line, field", UNRUNNABLE_CFGS)
    def test_unrunnable_value_exits_two_before_any_run(self, tmp_path, capsys, scenario, line, field):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "a_good.cfg").write_text(smoke_text("quasi-triangle"))
        (cfg_dir / "z_bad.cfg").write_text(f"scenario = {scenario}\n{line}\n")
        rc = main(["verify-all", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "out").exists()

    def test_directory_named_like_a_config_exits_two(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        (cfg_dir / "b.cfg").mkdir(parents=True)
        (cfg_dir / "a.cfg").write_text(smoke_text("quasi-triangle"))
        rc = main(["verify-all", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "b.cfg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failing_scenario_yields_exit_one(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "fail.cfg").write_text(FAILING_CFG)
        rc = main(["verify-all", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_solver_error_does_not_abort_the_matrix(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "a_stall.cfg").write_text(STALLING_CFG)
        (cfg_dir / "b_local.cfg").write_text(smoke_text("local-envelopes"))
        rc = main(["verify-all", str(cfg_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "2 scenario(s), 1 passed, 1 failed" in capsys.readouterr().out
        assert (tmp_path / "out" / "a_stall" / "manifest.json").exists()

    def test_output_root_that_is_a_file_exits_two(self, tmp_path, capsys):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "local.cfg").write_text(smoke_text("local-envelopes"))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["verify-all", str(cfg_dir), "--out", str(blocker)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_worker_runs_match_in_process_runs(self, tmp_path):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "fail.cfg").write_text(FAILING_CFG)
        (cfg_dir / "local.cfg").write_text(smoke_text("local-envelopes"))
        (cfg_dir / "qt.cfg").write_text(smoke_text("quasi-triangle"))
        summary = verify_all(cfg_dir, tmp_path / "workers")
        assert [row[:3] for row in summary.rows] == [
            ("fail.cfg", "penalized-convergence", False),
            ("local.cfg", "local-envelopes", True),
            ("qt.cfg", "quasi-triangle", True),
        ]
        rows = []
        for path in sorted(cfg_dir.glob("*.cfg")):
            cfg = read_config(path)
            try:
                run_scenario(cfg, tmp_path / "inline" / path.stem)
                rows.append((path.name, cfg.scenario, True, ""))
            except ScenarioFailure as exc:
                rows.append((path.name, cfg.scenario, False, str(exc).split("(")[0].strip()))
        assert summary.rows == rows

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert tree(tmp_path / "workers") == tree(tmp_path / "inline")
        assert len(tree(tmp_path / "inline")) == 3 + 3  # one artifact and a manifest each


class TestSmokeAllScenarios:
    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_scenario_passes_at_small_size(self, name, tmp_path):
        manifest = run_scenario(parse_config_text(smoke_text(name)), tmp_path)
        assert manifest.passed
        assert manifest.scenario == name
        assert set(manifest.files) == EXPECTED_ARTIFACTS[name]
        assert all(c.passed for c in manifest.checks)
