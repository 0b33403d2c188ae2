"""Machine-speed calibration for the benchmark's timings.

The shared VMs this benchmark runs on change speed by a quarter or more
within a minute.  Fixed reference loops timed right before and after each
measured piece of work track that speed, so times are reported as they
would read on a machine where the calibration takes CAL_REF_S.  On a 2-core
x86 VM this cut the spread of throughput between runs of the Python-loop
workloads from 12-19% to 2-4%; LAPACK-bound passes, which vary less, gain
nothing and lose a little (2% raw, 6% calibrated).
"""

import math
import time

CAL_REF_S = 0.003
CAL_ITERS = 10_000
CAL_REPEATS = 3


def _fastest(loop) -> float:
    """Fastest of CAL_REPEATS runs, since a stall can only slow a run."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def calibration_s() -> float:
    """Seconds the calibration takes now: the geometric mean of a loop over
    Python list elements and one over numpy array elements, the two kinds of
    work the per-sample kernels mix.  Imports numpy, so a set-up timing must
    calibrate after its timed import, not before."""
    import numpy as np

    def on_list():
        acc = [0.0] * 8
        for i in range(2 * CAL_ITERS):
            acc[i & 7] = acc[(i + 3) & 7] * 0.5 + i

    def on_array():
        acc = np.zeros(8)
        for i in range(CAL_ITERS):
            acc[i & 7] = acc[(i + 3) & 7] * 0.5 + i

    return math.sqrt(_fastest(on_list) * _fastest(on_array))


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    """seconds rescaled to the reference machine, by the mean of the
    calibrations that bracket it."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)
