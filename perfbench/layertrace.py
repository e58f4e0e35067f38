"""Per-layer tracing for the benchmark, from outside the program.

:class:`Tracer` wraps each layer's public entry points at every binding
site: every loaded ``maenv`` module attribute that is the entry point's
function object is replaced, so ``from .obstacle import psor_envelope`` in
another module is caught as well as the recursive cascade call inside
``maenv.obstacle``.  Each wrapped call records a span (name, start, end,
parent span) in memory; :func:`layer_metrics` turns the spans of one pass
into the per-layer metrics.

Counts marked "computed" are derived from the arguments and reports the
wrapper sees, not timed, so they repeat exactly for the same inputs:

* PSOR site updates: sweeps x 2 half-sweeps x n^2 (each half-sweep
  evaluates the whole grid, half of it for the colour not updated);
* Newton unknowns: unknowns per iteration (n^2, or the free-mask size)
  times iterations; damped steps: accepted steps shorter than 1;
* inf-convolution min-plus operations: two passes of n^3 each;
* capacity LP variables: n^2 per linear program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# (name, unit, better, computed) of every per-layer metric, in report order
PER_LAYER = [
    ("obstacle.psor.calls", "count", "lower", False),
    ("obstacle.psor.self_s", "s", "lower", False),
    ("obstacle.psor.sweeps", "count", "lower", False),
    ("obstacle.psor.site_updates", "count", "lower", True),
    ("obstacle.psor.useful_ratio", "ratio", "higher", True),
    ("obstacle.psor.cascade_s", "s", "lower", False),
    ("obstacle.psor.residual_max", "1", "lower", False),
    ("obstacle.psor.nonconverged", "count", "lower", False),
    ("obstacle.penalized_step.calls", "count", "lower", False),
    ("obstacle.penalized_step.self_s", "s", "lower", False),
    ("newton.calls", "count", "lower", False),
    ("newton.self_s", "s", "lower", False),
    ("newton.iterations", "count", "lower", False),
    ("newton.damped_steps", "count", "lower", True),
    ("newton.unknowns", "count", "lower", True),
    ("newton.submask_calls", "count", "lower", False),
    ("newton.residual_max", "1", "lower", False),
    ("newton.nonconverged", "count", "lower", False),
    ("equations.pmin_compose.calls", "count", "lower", False),
    ("equations.pmin_compose.self_s", "s", "lower", False),
    ("equations.perron_solve.calls", "count", "lower", False),
    ("equations.perron_solve.self_s", "s", "lower", False),
    ("equations.perron_solve.rounds", "count", "lower", False),
    ("equations.solve_ma_exponential.calls", "count", "lower", False),
    ("equations.solve_ma_exponential.self_s", "s", "lower", False),
    ("energy.capacity_lp.calls", "count", "lower", False),
    ("energy.capacity_lp.self_s", "s", "lower", False),
    ("energy.capacity_lp.variables", "count", "lower", True),
    ("energy.capacity_witness.calls", "count", "lower", False),
    ("energy.capacity_witness.self_s", "s", "lower", False),
    ("energy.quasi_triangle.calls", "count", "lower", False),
    ("energy.quasi_triangle.self_s", "s", "lower", False),
    ("torus.inf_convolution.calls", "count", "lower", False),
    ("torus.inf_convolution.self_s", "s", "lower", False),
    ("torus.inf_convolution.minplus_ops", "count", "lower", True),
    ("viscosity.check_supersolution.calls", "count", "lower", False),
    ("viscosity.check_supersolution.self_s", "s", "lower", False),
    ("viscosity.pipeline.calls", "count", "lower", False),
    ("viscosity.pipeline.self_s", "s", "lower", False),
    ("radial.envelope.calls", "count", "lower", False),
    ("radial.envelope.self_s", "s", "lower", False),
    ("radial.ma_mass.calls", "count", "lower", False),
    ("radial.ma_mass.self_s", "s", "lower", False),
    ("fields.random.calls", "count", "lower", False),
    ("fields.random.self_s", "s", "lower", False),
    ("scenarios.runner.self_s", "s", "lower", False),
    ("scenarios.runner.artifact_bytes", "B", "lower", False),
]

LAYERS = ("obstacle", "newton", "equations", "energy", "torus", "viscosity", "radial", "fields", "scenarios")


def _psor_counts(args, result, exc):
    n = args["theta"].grid.n
    if result is not None:
        rep = result.report
        sweeps, residual, failed = rep.iterations, rep.residual, not rep.converged
    else:
        sweeps = getattr(exc, "iterations", None) or 0
        residual = getattr(exc, "residual", None) or 0.0
        failed = True
    return {
        "sweeps": sweeps,
        "site_updates": 2 * sweeps * n * n,
        "useful_updates": sweeps * n * n,
        "residual_max": float(residual),
        "nonconverged": int(failed),
    }


def _newton_counts(args, result, exc):
    n = args["theta"].shape[0]
    free_mask = args["free_mask"]
    per_iteration = n * n if free_mask is None else int(np.count_nonzero(free_mask))
    submask = free_mask is not None or any(
        np.any(np.asarray(rho) == 0.0) for _, _, rho in args["terms"]
    )
    if result is not None:
        rep = result[1]
        iterations, residual, failed = rep.iterations, rep.residual, not rep.converged
        damped = sum(step < 1.0 for step in rep.damping)
    else:
        iterations = getattr(exc, "iterations", None) or 0
        residual = getattr(exc, "residual", None) or 0.0
        failed, damped = True, 0
    return {
        "iterations": iterations,
        "damped_steps": damped,
        "unknowns": iterations * per_iteration,
        "submask_calls": int(submask),
        "residual_max": float(residual),
        "nonconverged": int(failed),
    }


def _perron_counts(args, result, exc):
    return {"rounds": len(result[1]) if result is not None else 0}


def _capacity_name(args):
    return "energy.capacity_lp" if args["mode"] == "exact" else "energy.capacity_witness"


def _capacity_counts(args, result, exc):
    if args["mode"] != "exact" or not np.any(args["e_mask"]):
        return {}
    n = args["theta"].grid.n
    return {"variables": n * n}


def _inf_convolution_counts(args, result, exc):
    return {"minplus_ops": 2 * args["u"].grid.n ** 3}


def _runner_counts(args, result, exc):
    if result is None:
        return {}
    out = Path(args["out_dir"] if args["out_dir"] is not None else args["config"].out)
    names = list(result.files) + ["manifest.json"]
    return {"artifact_bytes": sum((out / name).stat().st_size for name in names)}


@dataclass(frozen=True)
class EntryPoint:
    module: str
    function: str
    name: object  # span name, or a function of the bound arguments giving it
    counts: object = None  # (arguments, result, exception) -> counts


ENTRY_POINTS = (
    EntryPoint("maenv.obstacle", "psor_envelope", "obstacle.psor", _psor_counts),
    EntryPoint("maenv.obstacle", "penalized_step", "obstacle.penalized_step"),
    EntryPoint("maenv._newton", "newton_semilinear", "newton", _newton_counts),
    EntryPoint("maenv.equations", "pmin_compose", "equations.pmin_compose"),
    EntryPoint("maenv.equations", "perron_solve", "equations.perron_solve", _perron_counts),
    EntryPoint("maenv.equations", "solve_ma_exponential", "equations.solve_ma_exponential"),
    EntryPoint("maenv.energy", "capacity", _capacity_name, _capacity_counts),
    EntryPoint("maenv.energy", "generalized_capacity", _capacity_name, _capacity_counts),
    EntryPoint("maenv.energy", "quasi_triangle_check", "energy.quasi_triangle"),
    EntryPoint("maenv.torus", "inf_convolution", "torus.inf_convolution", _inf_convolution_counts),
    EntryPoint("maenv.viscosity", "check_supersolution_visc", "viscosity.check_supersolution"),
    EntryPoint("maenv.viscosity", "supersolution_envelope_pipeline", "viscosity.pipeline"),
    EntryPoint("maenv.radial", "radial_envelope", "radial.envelope"),
    EntryPoint("maenv.radial", "local_envelope_ball", "radial.envelope"),
    EntryPoint("maenv.radial", "radial_ma_mass", "radial.ma_mass"),
    EntryPoint("maenv.fields", "random_smooth_field", "fields.random"),
    EntryPoint("maenv.fields", "random_theta_psh", "fields.random"),
    EntryPoint("maenv.scenarios", "run_scenario", "scenarios.runner", _runner_counts),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Context manager that wraps the entry points while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            original = getattr(module, entry.function, None)
            if original is None:
                self.missing.append(f"{entry.module}.{entry.function}")
                continue
            wrapper = self._wrap(entry, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "maenv" and not mod_name.startswith("maenv."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, entry, original):
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            name = entry.name(arguments) if callable(entry.name) else entry.name
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, name, perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if entry.counts is not None:
                    span.counts = entry.counts(arguments, result, error)

        return wrapper


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one pass: calls, self time and summed counts.

    ``spans`` is one tracer's list, where a span's id is its index.  Self
    time is a span's duration minus the durations of its direct children;
    ``*_max`` counts take the maximum, all others the sum.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.self_s"] += duration - child_time[span.id]
        parent = spans[span.parent].name if span.parent is not None else None
        if span.name == "obstacle.psor" and parent == "obstacle.psor":
            totals["obstacle.psor.cascade_s"] += duration
        for key, value in span.counts.items():
            metric = f"{span.name}.{key}"
            if key.endswith("_max"):
                totals[metric] = max(totals[metric], value)
            else:
                totals[metric] += value
    site_updates = totals["obstacle.psor.site_updates"]
    if site_updates:
        totals["obstacle.psor.useful_ratio"] = totals["obstacle.psor.useful_updates"] / site_updates
    return {name: totals.get(name, 0.0) for name, *_ in PER_LAYER}


def layer_shares(metrics: dict, wall: float) -> dict:
    """Share of one pass's wall time spent in each layer's own code."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            shares[name.split(".", 1)[0]] += value / wall
    return shares
