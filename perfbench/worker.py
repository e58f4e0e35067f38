"""One benchmark worker: a fresh interpreter that sets up, then times passes.

``run.py`` starts this script with the thread pools pinned and ``src`` on
``PYTHONPATH``; it is not meant to be run by hand.  The worker imports the
package, runs one untimed tiny pass of the workload at seed 0 (lazy scipy
submodules, first-call costs) and fills the ``laplacian_matrix`` cache;
the time from the parent's ``--t0`` to that point is this worker's set-up
time.  It then runs the reference kernel (``reference.py``) and timed
passes until its budget is spent; within a pass the reference kernel runs
again after every half second or more of scenario time, so that every
stretch of scenario time is bracketed by two reference timings.  With ``--trace 1`` passes
alternate untraced and traced, and the spans are written to
``--trace-file``.  The last stdout line is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import maenv
from maenv import scenarios, torus

from layertrace import Tracer, layer_metrics, layer_shares
from reference import REFERENCE_S, reference
from workloads import GRID_SIZES, config_texts

# scenario seconds between two runs of the reference kernel, at least
SEGMENT_S = 0.5


def _check_artifacts(manifest, out: Path) -> str | None:
    """Independent check of a returned manifest; an error message or None."""
    if not manifest.passed:
        failed = [c.name for c in manifest.checks if not c.passed]
        return f"checks failed: {', '.join(failed)}"
    for name, digest in manifest.files.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            return f"artifact {name} does not match its manifest hash"
    return None


def run_pass(configs, out_root: Path, ref=None) -> tuple[dict, tuple]:
    """Run every config once; scenario failures are recorded, never raised.

    With ``ref``, the (wall, cpu) of the reference run just before the pass,
    the reference kernel also runs after every ``SEGMENT_S`` or more of
    scenario time and after the last config, and each such segment's time
    is scaled by the mean of the two reference runs around it into
    ``wall_at_ref``/``cpu_at_ref``.  Returns the pass and the last reference.
    """
    runs = []
    wall = cpu = wall_at_ref = cpu_at_ref = seg_wall = seg_cpu = 0.0
    for index, config in enumerate(configs):
        out = out_root / f"{index}-{config.scenario}"
        start, cpu_start = time.perf_counter(), time.process_time()
        digest = None
        try:
            manifest = scenarios.run_scenario(config, out)
            error = _check_artifacts(manifest, out)
            digest = hashlib.sha256(json.dumps(manifest.files, sort_keys=True).encode()).hexdigest()
        except Exception as exc:  # counted into fail_ratio; the run goes on
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        wall, cpu = wall + seconds, cpu + cpu_seconds
        seg_wall, seg_cpu = seg_wall + seconds, seg_cpu + cpu_seconds
        runs.append(
            {
                "index": index,
                "scenario": config.scenario,
                "seconds": seconds,
                "error": error,
                "digest": digest,
            }
        )
        if ref is not None and (seg_wall >= SEGMENT_S or index == len(configs) - 1):
            after = reference()
            wall_at_ref += seg_wall * REFERENCE_S / ((ref[0] + after[0]) / 2.0)
            cpu_at_ref += seg_cpu * REFERENCE_S / ((ref[1] + after[1]) / 2.0)
            ref, seg_wall, seg_cpu = after, 0.0, 0.0
    result = {"wall": wall, "cpu": cpu, "runs": runs}
    if ref is not None:
        result.update(wall_at_ref=wall_at_ref, cpu_at_ref=cpu_at_ref)
    return result, ref


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--out", required=True, help="directory for scenario outputs")
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--tiny", action="store_true", help="time tiny configs")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    if src not in Path(maenv.__file__).resolve().parents:
        print(f"maenv was imported from {maenv.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_root = Path(args.out)
    # the warm-up only loads code, so its inputs do not follow --seed: tiny
    # sizes sit below the scenarios' asymptotic regime, and some seeds fail
    # a convergence check there (min-principle at seed 408)
    warmup = [scenarios.parse_config_text(t) for t in config_texts(args.workload, 0, tiny=True)]
    configs = [
        scenarios.parse_config_text(t) for t in config_texts(args.workload, args.seed, tiny=args.tiny)
    ]
    run_pass(warmup, out_root / "warmup")
    for n in GRID_SIZES[args.workload]:
        torus.laplacian_matrix(n)
    setup_s = time.monotonic() - args.t0
    reference()  # warm-up, untimed
    setup_ref = reference()
    ref = setup_ref

    passes, spans_out = [], []
    deadline = time.perf_counter() + args.budget
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        start = time.perf_counter()
        if traced:
            with Tracer() as tracer:
                result, ref = run_pass(configs, out_root / "timed", ref)
            result["layers"] = layer_metrics(tracer.spans)
            result["shares"] = layer_shares(result["layers"], result["wall"])
            result["missing"] = tracer.missing
            spans_out.append([[s.id, s.parent, s.name, s.start, s.end, s.counts] for s in tracer.spans])
        else:
            result, ref = run_pass(configs, out_root / "timed", ref)
        result["traced"] = traced
        result["elapsed"] = time.perf_counter() - start
        passes.append(result)
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            break

    if args.trace_file and spans_out:
        Path(args.trace_file).write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "span_fields": ["id", "parent", "name", "start", "end", "counts"],
                    "passes": spans_out,
                }
            )
        )

    summary = {
        "setup_s": setup_s,
        "setup_ref_wall": setup_ref[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
        },
        "passes": passes,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
