"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of one core drifts: on the 2-CPU machine the
benchmark was set up on, one hk scenario took 0.16 s in some 10-30 s
stretches and 0.28 s in others, with CPU time tracking wall time.  So every
end-to-end time is a wall time scaled to a machine of fixed speed: it is
multiplied by ``REFERENCE_S / k``, where ``k`` is the mean time of a fixed
pure-Python kernel run right before and right after the timed work.  The
kernel does the kinds of work the engine does and uses no engine code, so a
change to the engine moves the scaled times by as much as it moves the raw
ones.  Over 100 s on that machine, raw times of an hk scenario and of a
rank-25 spectral radius moved by +-22%, scaled ones by +-7 to 10%.
"""

from __future__ import annotations

import time

import mpmath

from workloads import matmul

#: Kernel time on the reference machine; scaled times are in its seconds.
REFERENCE_S = 0.012

_MATRIX = [[(7 * i + 3 * j) % 19 - 9 for j in range(14)] for i in range(14)]


def kernel() -> None:
    """About 5 ms each of tuple and dict work, multiprecision complex
    arithmetic and big-int matrix products: the three kinds of work the
    workloads do, which a busy core slows by different amounts."""
    entries = tuple((d, 3 * d + 1, 5 * d + 2) for d in range(64))
    big = 7 ** 40
    for rep in range(150):
        out = {}
        for deg, lo, hi in entries:
            j = deg - (rep & 3)
            plo, phi = out.get(j, (0, 0))
            out[j] = (plo + lo * big, phi + hi)
        entries = tuple(sorted((d + 1, lo, hi) for d, lo, hi in entries))
    with mpmath.workdps(40):
        z, c = mpmath.mpc(0), mpmath.mpc(-0.1, 0.1)
        for _ in range(400):
            z = z * z + c
    scaled = [[x * 10**12 for x in row] for row in _MATRIX]
    product = scaled
    for _ in range(6):
        product = matmul(product, scaled)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def timed(work, *args):
    """Run ``work(*args)``; returns (its result, raw seconds, scale factor)."""
    k_before = kernel_seconds()
    t0 = time.perf_counter()
    result = work(*args)
    raw = time.perf_counter() - t0
    k_after = kernel_seconds()
    return result, raw, REFERENCE_S / ((k_before + k_after) / 2)
