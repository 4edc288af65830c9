"""A speed probe that rescales an execution's wall time to a reference speed.

On a small shared host a vCPU's speed swings by 30-40% within seconds and
stays slow for up to minutes, as other tenants load the physical core under
it.  Interpreter loops and numpy calls slow down together, and each vCPU
swings on its own, so no probe in another process or before and after an
execution follows it.  This probe runs in the workload's own thread instead:
every PERIOD_S of wall time a SIGALRM handler runs a fixed kernel (under a
millisecond) and times it.

Each stretch of workload time between two probes is rescaled by
REF_S / (duration of the probe that opened it); the sum is the execution's
time on a host where the kernel takes REF_S.  On a 2-vCPU Xeon host this
took the coefficient of variation of the four workloads' 5-9 s executions
from 3-10% (raw) to 1-4% (rescaled).  The kernels' own time is excluded from
both figures; they add about 2% to an execution's wall time.

Set-up time is not rescaled: kernels timed right after a worker's import do
not follow its spawn-to-import time (coefficient of variation 12% raw, 12-14%
rescaled), which is mostly process start-up and loading shared libraries.

The handler runs only between bytecodes of the main thread, so it never
interrupts a numpy or scipy call; during long calls it simply fires later.
It touches no random state and no object of the program.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
REF_S = 900e-6  # about the kernel's median duration in the handler, host above
_ARRAY = np.linspace(0.0, 1.0, 4096)[::-1].copy()
_RATES = (0.7, 1.3, 2.1)
_EXCEED = [0.1 * (i + 1) for i in range(7)]
_SCALARS = [np.float64(0.1 * i) for i in range(20)]


def _survival(x):
    prod = 1.0
    for rate in _RATES:
        prod *= 1.0 - math.exp(-rate * x)
    return 1.0 - prod


def _simpson(a, b, fa, fm, fb, whole, tol):
    m = 0.5 * (a + b)
    flm, frm = _survival(0.5 * (a + m)), _survival(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return _simpson(a, m, fa, flm, fm, left, 0.5 * tol) + _simpson(
        m, b, fm, frm, fb, right, 0.5 * tol
    )


def _kernel():
    """A mix of what the workloads spend their time on, none of it from the
    program: an interpreter loop, a numpy sort, a recursive adaptive Simpson
    rule, a subset-product loop over bit masks and numpy scalar calls.  Each
    part alone follows some workloads and not others."""
    acc = 0.0
    for i in range(1500):
        acc += i * i % 7
    acc += float(np.sort(_ARRAY * 1.0001).sum())
    fa, fm, fb = _survival(0.0), _survival(3.0), _survival(6.0)
    acc += _simpson(0.0, 6.0, fa, fm, fb, fa + 4.0 * fm + fb, 1e-7)
    for mask in range(1, 1 << len(_EXCEED)):
        term = 1.0
        for i, p in enumerate(_EXCEED):
            term *= p if (mask >> i) & 1 else 1.0 - p
        acc += term
    for x in _SCALARS:
        acc += float(np.clip(np.exp(-x), 0.0, 1.0)) + float(np.asarray(x) * 2.0)
    return acc


class SpeedProbe:
    def __init__(self):
        self._samples = []  # (start, kernel duration)
        self._previous = None
        self._stop = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _kernel()
        self._samples.append((start, time.perf_counter() - start))

    def start(self):
        for _ in range(20):  # warm the kernel's code and data
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._stop = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    def wall_s(self):
        """Wall time from start to stop, less the kernels' own time."""
        return self._stop - self._samples[0][0] - sum(d for _, d in self._samples)

    def rescaled_s(self):
        """Wall time rescaled, stretch by stretch, to the reference speed."""
        ends = [start for start, _ in self._samples[1:]] + [self._stop]
        return sum(
            (end - start - duration) * REF_S / duration
            for (start, duration), end in zip(self._samples, ends)
        )

    def summary(self):
        durations = sorted(d for _, d in self._samples)
        return {"probes": len(durations), "probe_median_s": durations[len(durations) // 2]}
