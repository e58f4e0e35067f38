"""A fixed reference kernel that measures the machine, not the program.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes: every timing of the same code moves
with it, CPU time included.  The worker runs :func:`reference` before its
first timed pass and after every half second or more of scenario time, and
divides each such stretch of time by the mean of the two reference times
that bracket it.  The reference imports nothing from ``maenv``, so a
change to the program cannot move it, while a change in machine speed
moves both and cancels.

The kernel mimics the program's mix of work, in four parts of similar
cost: a sparse LU factorization and solve (the Newton layer), red-black
relaxation sweeps with a projection (PSOR), a broadcast min-plus product
(the inf-convolution) and a plain interpreter loop (Python-level glue).
Its arrays are built once; one call takes about ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# nominal seconds of one reference() call, about its median on a 2-vCPU
# Xeon VM (Python 3.11, numpy 2.4, one BLAS thread); times are reported
# at the machine speed where a call takes this long
REFERENCE_S = 0.2


def _build():
    n = 64
    e = np.ones(n)
    ring = sp.diags([-e[:-1], 2.5 * e, -e[:-1]], [-1, 0, 1], format="csr")
    ring = ring.tolil()
    ring[0, n - 1] = ring[n - 1, 0] = -1.0
    ring = ring.tocsr()
    eye = sp.identity(n, format="csr")
    matrix = (sp.kron(eye, ring) + sp.kron(ring, eye)).tocsc()
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    field = np.sin(2.0 * np.pi * np.add.outer(x, 2.0 * x))
    red = (np.add.outer(np.arange(n), np.arange(n)) % 2) == 0
    return matrix, field, red


_MATRIX, _FIELD, _RED = _build()


def _work() -> float:
    total = 0.0
    rhs = _FIELD.ravel()
    for _ in range(3):
        total += float(splu(_MATRIX).solve(rhs).sum())
    u = _FIELD.copy()
    for _ in range(400):
        for colour in (_RED, ~_RED):
            avg = 0.25 * (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1))
            u = np.where(colour, np.maximum(avg, _FIELD - 0.5), u)
    total += float(u.sum())
    cost = np.abs(np.subtract.outer(np.arange(64.0), np.arange(64.0))) / 64.0
    v = _FIELD
    for _ in range(48):
        v = np.min(v[:, :, None] + cost[None, :, :], axis=1)
    total += float(v.sum())
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return total + acc


def reference() -> tuple[float, float]:
    """(wall, cpu) seconds of one call of the reference kernel."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - wall0, time.process_time() - cpu0
