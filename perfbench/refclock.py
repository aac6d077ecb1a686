"""Reference clock: divides the host's contention out of measured times.

On a shared host the same code runs at the host's full speed one moment
and at half of it the next, in spells from a fraction of a second to
minutes long, and the process is charged CPU time for the slow spells as
well.  `Sampler` measures that speed while the program runs: every
`PERIOD_S` of wall time a timer signal interrupts the program between
two bytecodes and runs `burst`, a fixed piece of work written here, with
no call into the program, that exercises what the program spends its
time on (`Fraction` arithmetic, tuples in sets, integer rows reduced
mod p in Python and in numpy).  A burst's speed is `NOMINAL_BURST_S`
over its duration.  Samples are evenly spaced in wall time, so a span's
time at full speed is its measured time, less the bursts inside it,
times the mean speed of the samples taken during it.

A change to the program moves the program's time and not the bursts',
so it shows in full.  `NOMINAL_BURST_S` fixes the scale: it is the
burst's time at full speed on the reference host (2-vCPU x86-64 virtual
machine, Python 3.11), so there a normalized time reads as seconds at
that host's full speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

import numpy as np

PERIOD_S = 0.025
NOMINAL_BURST_S = 0.00145

_SIMPLES = [tuple(Fraction(x) for x in r)
            for r in ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1))]
_PRIME = 2_147_483_629
# scaled Vandermonde rows: every leading minor is invertible mod _PRIME
_ROWS = [[(i + 2) ** (5 * j + 3) for j in range(12)] for i in range(8)]
_ARR = np.array([[x % 32749 for x in r] for r in _ROWS], dtype=np.int64)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def burst() -> int:
    """One unit of reference work; returns a checksum so none of it is skipped."""
    roots = set(_SIMPLES)
    frontier = list(_SIMPLES)
    norms = [_dot(a, a) for a in _SIMPLES]
    while frontier:
        beta = frontier.pop()
        for alpha, n2 in zip(_SIMPLES, norms):
            c = 2 * _dot(beta, alpha) / n2
            img = tuple(b - c * a for b, a in zip(beta, alpha))
            if img not in roots:
                roots.add(img)
                frontier.append(img)
    rows = [[x % _PRIME for x in r] for r in _ROWS]
    arr = _ARR.copy()
    for k in range(len(rows) - 1):
        pivot, inv = rows[k], pow(rows[k][k], -1, _PRIME)
        for r in rows[k + 1:]:
            f = r[k] * inv % _PRIME
            r[:] = [(x - f * y) % _PRIME for x, y in zip(r, pivot)]
        for i in range(k + 1, arr.shape[0]):
            arr[i] = (arr[i] * arr[k, k] - arr[k] * arr[i, k]) % 32749
    return len(roots) + rows[-1][-1] + int(arr.sum())


class Sampler:
    """Runs `burst` on a wall-clock timer and keeps each burst's duration.

    Only one may run at a time in a process: it owns SIGALRM while started.
    """

    def __init__(self):
        self.durations: List[float] = []
        self.busy_wall = 0.0
        self.busy_cpu = 0.0
        self._inside = False

    def _tick(self, signum, frame) -> None:
        if self._inside:
            return
        self._inside = True
        # a collection the burst's allocations would trigger is left to the
        # program, which made the garbage
        collecting = gc.isenabled()
        gc.disable()
        cpu0, t0 = time.process_time(), time.perf_counter()
        burst()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.durations.append(t1 - t0)
        self.busy_wall += t1 - t0
        self.busy_cpu += time.process_time() - cpu0
        self._inside = False

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> Tuple[int, float, float]:
        """Samples so far and burst wall and CPU seconds so far."""
        return len(self.durations), self.busy_wall, self.busy_cpu

    def speed(self, since: int, until: int) -> float:
        """Mean speed, as a share of full speed, of the samples in [since, until)."""
        window = self.durations[since:until]
        if not window:
            raise RuntimeError("no reference samples in the span; it is shorter than "
                               f"the sampling period of {PERIOD_S} s")
        return statistics.fmean(NOMINAL_BURST_S / d for d in window)
