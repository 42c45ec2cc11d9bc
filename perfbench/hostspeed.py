"""Host speed, from a fixed reference computation run between ops.

The benchmark shares a few cores of a host with other tenants, and the speed
at which the same code runs drifts by up to about 2x over 30-90 s, far more
than a run of the benchmark lasts. `ReferenceClock` times a fixed mix of the
work plqnewton does (integer and float bytecode, small objects and dicts,
small numpy and LAPACK calls, dense 40 x 40 products like those of exprmap's
jets) that uses nothing of plqnewton, so that a change to the library cannot
move it. `scales(timings)` converts a time
measured between two reference timings to the time it would have taken at
the reference speed, at which the mix takes REFERENCE_S. On this sort of host
the scaled time of a fixed pass of the benchmark's ops drifts about a fifth
as much as its wall time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The mix's duration at the reference speed: about its duration on a shared
# 2-vCPU VM (2.1 GHz, Python 3.11, numpy 2.4) in its usual stretches.
REFERENCE_S = 0.020
# Timings on either side of an interval that scale the work done in it.
REACH = 2


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def _int_loop():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _float_loop():
    vals = [float(i) for i in range(200)]
    x = 0.5
    for _ in range(75):
        x = sum(v * x for v in vals) * 1e-5 + 0.5
    return x


def _objects():
    table = {}
    for i in range(7500):
        p = _Point(i, -i)
        table[i % 97] = (p.x + p.y, str(i)[:2])
        if i % 50 == 0:
            sorted(table)
    return len(table)


def _small_numpy():
    a = np.arange(20.0)
    m = np.eye(6) + 0.1
    for _ in range(400):
        a = np.sqrt(a * a + 1.0) - 1.0
        m = np.linalg.solve(m, np.eye(6)) + 0.1
    return float(a[0] + m[0, 0])


def _dense_numpy():
    rng = np.random.default_rng(0)
    vecs, h = rng.standard_normal((8, 40)), rng.standard_normal((40, 40))
    acc = h.copy()
    for i in range(150):
        a, c = vecs[i % 8], vecs[(i + 3) % 8]
        acc = 0.5 * acc + np.outer(a, c) + a[:, None] * c[None, :]
        acc = acc @ h * 1e-3
        acc += acc.T
    return float(acc[0, 0])


KERNELS = (_int_loop, _float_loop, _objects, _small_numpy, _dense_numpy)


class ReferenceClock:
    """Times the reference mix; see the module docstring."""

    def measure(self) -> float:
        """Seconds the reference mix takes now."""
        t0 = time.perf_counter()
        for kernel in KERNELS:
            kernel()
        return time.perf_counter() - t0

    @staticmethod
    def scales(timings: list) -> list:
        """Factors from wall seconds to reference seconds, one for the work
        done between each two successive reference timings: REFERENCE_S over
        the median of the `2 * REACH` timings nearest that interval. The
        median follows the host's drift and damps the noise of one timing."""
        return [REFERENCE_S / statistics.median(timings[max(0, k - REACH + 1):k + REACH + 1])
                for k in range(len(timings) - 1)]
