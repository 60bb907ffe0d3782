"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of one core drifts.  On a 2-core Intel Xeon
2.1 GHz container, a fixed pure-Python loop timed in 0.2 s windows ranged
from 0.157 s to 0.258 s within 40 seconds, with no steal time, and the
docs_per_s of ten 25 s runs of one workload spread by up to 0.37
(interquartile range over median).  So the benchmark times a fixed kernel,
`kernel()`, between invocations, and scales each invocation's wall time by
REFERENCE_S over the mean of the kernel times just before and just after
it.  A timing so scaled is the wall time the invocation would have taken at
the speed at which the kernel takes REFERENCE_S.

The kernel uses only builtins and the standard library's Fraction, nothing
from algact, and mixes what algact spends its time on: Python loops,
big-integer fraction-free elimination and Fraction sums.  Of the variants
tried, a single timing of three rounds tracked the host best: on six ideal
runs of 20 s its scaled p50, p90 and rate spread by 0.03-0.05, against
0.11-0.13 unscaled and 0.05-0.10 for the fastest of five shorter
integer-only rounds.
On two sets of ten 25 s runs of each workload, docs_per_s, p50 and p90
spread by 0.02-0.06 scaled and by 0.06-0.31 unscaled.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the median kernel time between invocations on the host named above,
# so that scaled timings read close to the wall times seen there.
REFERENCE_S = 1.3e-3

_MATRIX = [[(7 * i + 3 * j * j + 1) % 11 - 5 for j in range(7)] for i in range(7)]


def _work():
    a = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i * i + 1, 3 * i + 2)
    return a[-1][-1], total


def kernel() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    for _ in range(3):
        _work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two kernel timings
    into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
