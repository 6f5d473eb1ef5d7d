"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core is not steady: the same code
runs in one of a few speed states (up to 1.4x apart for knotforge on the
machine the benchmark was written on) that switch every few seconds, and a
run can stay mostly in one of them, so the wall time of a run mostly
measures which states it happened to meet.  More passes in one run do not
average that away.

`Sampler` measures the speed as the program runs: an interval timer
interrupts the process every INTERVAL_S, and the handler times a small
fixed kernel.  An op's calibrated time is its wall time, minus the time
spent in the handler, scaled by NOMINAL_S over the median kernel time
measured during the op: the op's seconds on a machine where the kernel
takes NOMINAL_S.  The kernel is plain `fractions` arithmetic of the kind
the program does (rational Horner evaluation) and shares no code with it,
so a change to the program moves calibrated times as it moves wall times.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

INTERVAL_S = 0.02
# About the kernel's median time on a shared 2-vCPU Xeon VM with CPython 3.11.7.
NOMINAL_S = 0.00025
# An op shorter than this, or with under 3 samples, uses the samples this
# near its midpoint.
WINDOW_S = 0.1

# 300-bit numerators and a 48-bit dyadic point, like the program's root
# refinement.  A kernel of small fractions left twice the drift on root
# refinement that this one leaves (0.083 against 0.041, sd of log time
# over 1.5-second windows).
_COEFFS = [Fraction((-1) ** k * (3 ** 190 + 12345 * 7 ** k), 11 ** 11 + 2 * k + 1)
           for k in range(25)]
_POINT = Fraction(0x9E3779B97F4A, 2 ** 48)


def kernel() -> Fraction:
    v = Fraction(0)
    for c in _COEFFS:
        v = v * _POINT + c
    return v


class Sampler:
    """Times the kernel from a SIGALRM handler inside its `with` block."""

    def __init__(self) -> None:
        self.at = array("d")       # perf_counter when each sample started
        self.took = array("d")     # the kernel's seconds
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds for the interval [start, end] measured while sampling."""
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        handler_s = sum(self.took[lo:hi])
        if end - start < WINDOW_S or hi - lo < 3:
            mid = (start + end) / 2
            lo = bisect_left(self.at, mid - WINDOW_S)
            hi = max(bisect_right(self.at, mid + WINDOW_S), lo + 1)
        speed = self.took[lo:hi] or self.took[-1:]
        if not speed:
            raise RuntimeError("no speed sample taken; is SIGALRM blocked?")
        return (end - start - handler_s) * NOMINAL_S / statistics.median(speed)
