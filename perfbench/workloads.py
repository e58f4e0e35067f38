"""Benchmark workloads: scenario configs generated from a seed.

A workload is a list of scenario configs that one pass runs in order
through ``maenv.scenarios.run_scenario``.  Sizes sit below the shipped
``configs/`` so that a pass takes a few seconds and one run holds enough
passes for a steady median, while each workload keeps the layer profile it
was chosen for (the reasons are in ``BENCHMARK.json``):

* ``obstacle-lcp``: projected SOR on smooth and step obstacles, with one
  cascade level at n = 128 and no Newton solve at all;
* ``newton-penalized``: the full penalization schedule, where the sparse LU
  of the Newton layer dominates;
* ``small-mixed``: every other scenario, many small calls into every layer.

The same seed always gives the same configs.  The ``tiny`` variant runs
every scenario of the workload at sizes where a pass takes well under a
second; at seed 0 its checks hold (not at every seed: min-principle fails
its convergence check at seed 408).  It warms lazy imports before timing,
at seed 0, and backs the smoke test.
"""

from __future__ import annotations

import random

WORKLOADS = ("obstacle-lcp", "newton-penalized", "small-mixed")

# grid sizes whose Laplacian matrix the worker builds during set-up, so that
# the laplacian_matrix cache is filled before the first timed pass
GRID_SIZES = {
    "obstacle-lcp": (),
    "newton-penalized": (64,),
    "small-mixed": (24, 32, 64),
}


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _obstacle_lcp(rng, tiny):
    n = 32 if tiny else 64
    return [
        # crossing pairs at n and 2n: the fine level runs one PSOR cascade
        ("min-principle", {"seed": _seed(rng), "n": n, "pairs": 2 if tiny else 3}),
        # random smooth obstacles at n, then the step obstacle at n and 2n
        ("orthogonality", {"seed": _seed(rng), "n": n, "count": 1 if tiny else 6}),
    ]


def _newton_penalized(rng, tiny):
    return [
        (
            "penalized-convergence",
            {
                "seed": _seed(rng),
                "n": 32 if tiny else 64,
                "j_max_log2": 8 if tiny else 14,
                "smooth_amp": round(rng.uniform(0.2, 0.3), 6),
                "obstacle_x0": round(rng.uniform(0.2, 0.3), 6),
                "obstacle_x1": round(rng.uniform(0.7, 0.8), 6),
            },
        )
    ]


def _small_mixed(rng, tiny):
    def size(n):
        return 16 if tiny else n

    return [
        ("perron", {"seed": _seed(rng), "n": size(32)}),
        ("capacity-sandwich", {"seed": _seed(rng), "n": size(24), "masks": 2 if tiny else 4}),
        ("mass-bound", {"seed": _seed(rng), "n": size(64), "seeds": 5 if tiny else 100}),
        ("quasi-triangle", {"seed": _seed(rng), "n": size(64), "triples": 2 if tiny else 50}),
        ("viscosity-pipeline", {"seed": _seed(rng), "n": 64 if tiny else 128}),
        (
            "extremal-contact",
            {"seed": _seed(rng), "n": size(64), "theta_amp": round(rng.uniform(1.5, 2.5), 6)},
        ),
        ("radial-ball", {"seed": _seed(rng), "m": 4096}),
        ("local-envelopes", {"seed": _seed(rng), "m": 256 if tiny else 4096}),
    ]


_GENERATORS = {
    "obstacle-lcp": _obstacle_lcp,
    "newton-penalized": _newton_penalized,
    "small-mixed": _small_mixed,
}


def config_texts(workload: str, seed: int, tiny: bool = False) -> list[str]:
    """The workload's scenario configs, as ``key = value`` config texts."""
    rng = random.Random(f"{workload}/{seed}")
    texts = []
    for scenario, params in _GENERATORS[workload](rng, tiny):
        lines = [f"scenario = {scenario}"] + [f"{key} = {val}" for key, val in params.items()]
        texts.append("\n".join(lines) + "\n")
    return texts
