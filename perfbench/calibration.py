"""Host-speed calibration for timings on a shared machine.

On a small shared VM the speed of the CPU moves by up to about 1.5x over tens
of seconds, with CPU time following wall time, so a raw median of one
window depends on when the window ran.  A fixed loop of interpreter work and
small numpy operations, independent of curvlab, is timed right before and
right after every measured interval.  The interval divided by the mean of
its two loop times is a speed-independent ratio; multiplied by
REFERENCE_LOOP_S it reads as seconds on a host where the loop takes that
long.  The run and layer times the benchmark reports are scaled this way;
the raw wall times are printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

# About the loop's time on an idle core of the reference VM (2 vCPU Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6); it only sets the scale of the figures.
REFERENCE_LOOP_S = 0.055

_IDX = np.array([0, 1, 2, 3, 4, 5, 1, 2, 3, 0, 4, 4])
_OUT = np.arange(12)
_A = np.linspace(0.0, 1.0, 15)
_B = _A[::-1].copy()
_X = np.linspace(0.0, 1.0, 65536)
_Y = _X[::-1].copy()


def loop_seconds() -> float:
    """Wall seconds of the fixed calibration loop.

    About three quarters of it is interpreter work around small arrays, like
    the per-point jet path; the rest streams arrays of quadrature size.
    """
    start = time.perf_counter()
    for i in range(20000):
        np.bincount(_OUT, weights=_A[_IDX] * _B[_IDX], minlength=15)
        d = {"x": i, "y": [i, i + 1]}
        sum(d["y"]) + len(d)
    for _ in range(60):
        v = np.sqrt(1.0 + _X * _X + _Y * _Y)
        float(np.sum(v[_X < 0.5]))
    return time.perf_counter() - start


class Clock:
    """Times intervals and scales each by the calibration loops around it."""

    def __init__(self):
        self.last_loop = loop_seconds()

    def scale(self, seconds: float) -> float:
        """Scale an interval that ended just now; runs the next calibration loop."""
        before, after = self.last_loop, loop_seconds()
        self.last_loop = after
        return seconds * REFERENCE_LOOP_S / (0.5 * (before + after))
