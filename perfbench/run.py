"""maenv benchmark: scenario workloads timed end to end, or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload obstacle-lcp --seed 1 --seconds 36 --trace 0

The workloads (``perfbench/workloads.py``) are scenario configs generated
from ``--seed`` and run through ``maenv.scenarios.run_scenario`` by one
caller in a closed loop: each pass runs the workload's scenarios once, in
order.  The passes run in ``WORKERS`` fresh interpreters, one after the
other, each with an equal share of ``--seconds``; every worker start is one
set-up sample.  BLAS and OpenMP thread pools are pinned to one thread.

Every scenario run is checked: its manifest must pass, its artifacts must
match their hashes, and its artifact hashes must equal those of every other
pass of the same seed.  An exception counts as a failed run and the
benchmark goes on.

``--trace 0`` reports the end-to-end metrics.  Times are reported at a
fixed machine speed: every stretch of a pass's wall and CPU time between
two runs of the reference kernel (``perfbench/reference.py``) is divided by
the mean of those two kernel timings and multiplied by the kernel's nominal
time, and each worker's set-up time likewise by the kernel timing right
after it.  On a shared VM
this removes most of the drift in machine speed; the raw times are printed
too.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, measured by
wrappers around each layer's entry points (``perfbench/layertrace.py``);
spans go to ``perfbench/_work/trace-<workload>-seed<seed>-w<i>.json``.
Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when a correctness check failed, 2 when the checkout has no
``src/maenv`` and 3 when a worker crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import PER_LAYER
from reference import REFERENCE_S
from workloads import WORKLOADS

WORKERS = 3
RUN_LIMIT_S = 170.0  # every worker has ended by then

THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

# (name, unit, better) of every end-to-end metric
END_TO_END = [
    ("wall_ref_s", "s", "lower"),
    ("cpu_ref_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# scenarios timed on their own as scenario_s.<name>: those that take a
# second or more at shipped sizes; the first two run in obstacle-lcp, the
# others in small-mixed
TIMED_SCENARIOS = (
    "min-principle",
    "orthogonality",
    "perron",
    "capacity-sandwich",
    "mass-bound",
    "quasi-triangle",
    "viscosity-pipeline",
)

PER_LAYER_METRICS = (
    [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    + [("trace.overhead_ratio", "ratio", "lower")]
    + [(f"scenario_s.{name}", "s", "lower") for name in TIMED_SCENARIOS]
)
COMPUTED = {name for name, _, _, computed in PER_LAYER if computed}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _run_workers(args, root: Path, work: Path) -> list[dict]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    limit = time.monotonic() + RUN_LIMIT_S
    workers = 1 if args.tiny else WORKERS
    summaries = []
    for index in range(workers):
        t0 = time.monotonic()
        cmd = [
            sys.executable,
            str(Path(__file__).with_name("worker.py")),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--budget", "0" if args.tiny else str(args.seconds / workers),
            "--trace", str(args.trace),
            "--t0", repr(t0),
            "--src", str(root / "src"),
            "--out", str(work / "out"),
            "--trace-file", str(work / f"trace-{args.workload}-seed{args.seed}-w{index}.json"),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, limit - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker {index} did not finish within {RUN_LIMIT_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
        summaries.append(json.loads(stdout.strip().splitlines()[-1]))
    return summaries


def _check_runs(passes) -> tuple[int, int, int]:
    """(attempted, failed, nondeterministic) scenario runs over all passes."""
    first_digest = {}
    attempted = failed = nondet = 0
    for result in passes:
        for run in result["runs"]:
            attempted += 1
            if run["error"] is not None:
                failed += 1
                print(f"FAIL {run['scenario']}: {run['error']}", file=sys.stderr)
                continue
            expected = first_digest.setdefault(run["index"], run["digest"])
            if run["digest"] != expected:
                nondet += 1
                print(f"NONDETERMINISTIC {run['scenario']}: artifact hashes differ between passes", file=sys.stderr)
    return attempted, failed, nondet


def _line(name, value, unit, note=""):
    print(f"  {name:42s} {value:14.6g} {unit:6s} {note}".rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one worker, one pass of tiny configs (smoke test)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "maenv" / "__init__.py").is_file():
        print(f"no maenv package under {root / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    work = Path(__file__).resolve().parent / "_work"
    shutil.rmtree(work / "out", ignore_errors=True)
    work.mkdir(exist_ok=True)

    try:
        summaries = _run_workers(args, root, work)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3

    passes = [p for s in summaries for p in s["passes"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failed, nondet = _check_runs(passes)
    env = summaries[0]["environment"]
    print(f"maenv benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, threads pinned: "
        + " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    )
    print(f"closed loop, one caller; {len(summaries)} worker(s), {len(plain)} untraced and {len(traced)} traced passes")

    samples = {
        "wall_ref_s": [p["wall_at_ref"] for p in plain],
        "cpu_ref_s": [p["cpu_at_ref"] for p in plain],
        "setup_s": [s["setup_s"] * REFERENCE_S / s["setup_ref_wall"] for s in summaries],
        "wall_s": [p["wall"] for p in plain],
        "cpu_s": [p["cpu"] for p in plain],
        "setup_raw_s": [s["setup_s"] for s in summaries],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = max(s["peak_rss_mb"] for s in summaries)
    print(
        f"end to end (wall_ref_s, cpu_ref_s and setup_s at reference speed, where the kernel takes {REFERENCE_S:g} s;"
        " wall_s, cpu_s and setup_raw_s as measured):"
    )
    for label, v in samples.items():
        q1, q3 = _quartiles(v)
        _line(label, values[label], "s", f"median of {len(v)}, quartiles {q1:.4g} .. {q3:.4g}")
    _line("peak_rss_mb", values["peak_rss_mb"], "MB", f"max of {len(summaries)} workers")
    _line("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} scenario runs")
    _line("nondet_ratio", nondet / attempted, "ratio", f"{nondet} of {attempted} scenario runs")
    for scenario in TIMED_SCENARIOS:
        times = [r["seconds"] for p in plain for r in p["runs"] if r["scenario"] == scenario]
        values[f"scenario_s.{scenario}"] = statistics.median(times) if times else 0.0
        if times:
            _line(f"scenario_s.{scenario}", values[f"scenario_s.{scenario}"], "s", f"median of {len(times)}")

    if traced:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced) for name, *_ in PER_LAYER
        }
        values.update(layers)
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_at_ref"] for p in traced) / values["wall_ref_s"]
        )
        missing = sorted({m for p in traced for m in p["missing"]})
        if missing:
            print(f"entry points not found, not traced: {', '.join(missing)}")
        print(f"per layer (median of {len(traced)} traced passes):")
        for name, unit, _ in PER_LAYER_METRICS:
            _line(name, values[name], unit, "(computed)" if name in COMPUTED else "")
        print("share of traced wall time in each layer's own code:")
        for layer in traced[0]["shares"]:
            _line(layer, statistics.median(p["shares"][layer] for p in traced), "ratio")

    reported = PER_LAYER_METRICS if args.trace else END_TO_END
    bad = failed + nondet
    result = {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": bad,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in reported},
    }
    print(json.dumps(result))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
