"""A fixed reference loop that gauges the host CPU's speed of the moment.

On a shared virtual machine the speed of the same code swings by 20-40 %
over seconds to minutes, and both wall and CPU time follow the swing.  The
benchmark therefore runs this loop between its timed chunks of work and
scales every chunk's rate to the nominal speed at which the loop takes
``NOMINAL_S``.  The loop shares no code with ``coverage_inekf``, so a change
to the library moves the scaled rate as much as the raw one.

It mixes what the workloads spend their time on: interpreted Python, small
dense linear algebra and vectorized special functions over a few thousand
points.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import ndtr, ndtri

# A fixed scale: scaled figures are those of a host on which one reference
# pass takes NOMINAL_S.  On the 2-vCPU machine of baseline.json a pass took
# 5.5-8 ms as the host's speed swung.
NOMINAL_S = 0.008

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((15, 15))
_SPD = _A @ _A.T + 15.0 * np.eye(15)
_RHS = _RNG.standard_normal((15, 3))
_ROT = np.linalg.qr(_RNG.standard_normal((3, 3)))[0]
_U = _RNG.uniform(0.01, 0.99, (1000, 3))


def _interpreted() -> int:
    acc = 0
    table = {}
    for i in range(20000):
        acc = (acc + i * i) % 1000003
        table[i & 63] = acc
    return acc + len(table)


def _small_linalg() -> float:
    acc = 0.0
    for _ in range(150):
        x = np.linalg.solve(_SPD, _RHS)
        r = _ROT @ x[:3] @ _ROT.T
        acc += float(r[0, 0])
    return acc


def _vectorized() -> float:
    acc = 0.0
    for _ in range(12):
        z = ndtri(_U) @ _ROT.T
        w = ndtr(z).prod(axis=1)
        acc += float(w @ z[:, 0])
    return acc


def reference_seconds(passes: int = 1) -> float:
    """Median wall time of ``passes`` passes of the reference loop."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        _interpreted()
        _small_linalg()
        _vectorized()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two reference
    passes; a rate times this, or a duration divided by it, is the figure
    at nominal speed."""
    return 0.5 * (before + after) / NOMINAL_S
