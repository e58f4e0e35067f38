"""Command-line interface.

Two commands::

    maenv run <scenario> --config <file> --out <dir>
    maenv verify-all <config-dir> [--out <dir>]

``run`` executes one scenario and writes its artifacts plus ``manifest.json``
into the output directory.  ``verify-all`` runs every ``*.cfg`` in a
directory, one worker process per config up to the number of CPUs, and
prints a pass/fail matrix.  Exit status: 0 when all checks pass, 1 when a
scenario check fails, 2 on configuration errors (an output directory that
cannot be created, or an output file that cannot be written, is one).
The config's ``seed`` is the only seed: no option or environment variable
overrides it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ScenarioFailure
from .scenarios import SCENARIOS, read_config, run_scenario, verify_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maenv",
        description="Envelope and Monge-Ampere experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("scenario", choices=list(SCENARIOS))
    run_p.add_argument("--config", required=True, help="flat key = value config file")
    run_p.add_argument("--out", required=True, help="output directory for artifacts")

    va_p = sub.add_parser("verify-all", help="run every *.cfg in a directory")
    va_p.add_argument("config_dir")
    va_p.add_argument("--out", default=None, help="output root (default: <config_dir>/out)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = read_config(args.config, args.scenario)
            manifest = run_scenario(config, args.out)
            for check in manifest.checks:
                print(f"PASS {check.name} = {check.value:.10g}")
            print(f"manifest: {os.path.join(args.out, 'manifest.json')}")
            return 0
        summary = verify_all(args.config_dir, args.out)
        print(summary.matrix())
        return 0 if summary.success else 1
    except ScenarioFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
