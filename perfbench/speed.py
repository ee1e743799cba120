"""Host-speed probes: scale measured times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed for the same
code swings by up to 40% within a second, as other tenants come and go (on a
2-vCPU VM a fixed pure-Python loop flips between about 1.4 and 2.0 ms, with
thread CPU time equal to wall time).  Medians over a run do not remove that:
a run's median lands on whichever speed dominated it.

So the runner times a fixed reference computation, a *probe*, every
``EVERY_S`` seconds while it measures, and scales the CPU-busy part of each
timed call by the probe's nominal duration over its measured one (see
``Clock.scaled``): times read as they would at the speed at which the probe
takes its nominal duration.  The probes are the benchmark's own code, fixed
across versions of routebench, so a faster routebench still reads faster.
Each workload uses the probe that resembles its hot code (``PROBES``).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

EVERY_S = 0.04

_rng = np.random.default_rng(20250917)
_SMALL = _rng.standard_normal((8, 8)) / 8
_VEC = _rng.standard_normal(8)
_ROWS = _rng.standard_normal((64, 512))
_DENSE = _rng.standard_normal((512, 512)) / 512
_PRODUCT = np.empty((64, 512))


def _interpreted(n: int) -> int:
    counts = {}
    total = 0
    for i in range(n):
        key = (i * 7) & 31
        counts[key] = counts.get(key, 0) + 1
        total += len(f"{key}")
    return total + len(counts)


def _small_arrays(n: int) -> float:
    v = _VEC
    for _ in range(n):
        v = np.tanh(_SMALL @ v + 0.1)
    return float(v.sum())


def interpreted_probe() -> None:
    """Interpreted Python and numpy calls on tiny arrays."""
    _interpreted(3000)
    _small_arrays(240)


def dense_probe() -> None:
    """A mid-sized matrix product in BLAS."""
    np.matmul(_ROWS, _DENSE, out=_PRODUCT)


# Each probe with its duration at the fastest speed seen on a 2-vCPU x86-64
# VM (Python 3.11, numpy 2.4, OpenBLAS at 1 thread); the duration only fixes
# the unit.
PROBES = {
    "interpreted": (interpreted_probe, 0.0011),
    "dense": (dense_probe, 0.00075),
}


class Clock:
    """Probes taken during a measurement and the scaling they imply.

    ``start`` arms an interval timer whose handler runs a probe every
    ``EVERY_S`` seconds, inside timed calls too (Python runs the handler in
    the main thread between bytecodes); ``scaled`` takes the probes out of
    a call's time again.  ``maybe_probe`` instead probes only between
    calls, for code that must not be interrupted.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.run_probe, self.nominal = PROBES[kind]
        self.at = []  # probe start times
        self.took = []  # probe durations
        self.last = float("-inf")
        self._armed = False
        self._previous = None

    def probe(self) -> None:
        """Run the probe once.  Its duration is the CPU time of this thread:
        when other threads of the process wait for the interpreter lock the
        probe holds, or hold it while the probe waits, wall time would count
        that, thread time does not."""
        self.at.append(time.perf_counter())
        cpu = time.thread_time()
        self.run_probe()
        self.took.append(time.thread_time() - cpu)
        self.last = time.perf_counter()

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.probe()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self._armed = True

    def stop(self) -> None:
        """Disarm the timer; does nothing if ``start`` was not called."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._armed = False

    def scaled(self, start: float, end: float, cpu: float) -> float:
        """Seconds of [start, end] not spent probing, with the part in which
        the process used ``cpu`` CPU seconds scaled by the nominal probe
        duration over the mean of the probes in and just around it.  Time
        the process spent idle (waiting on a simulated service) is not
        scaled: the host's speed does not change it."""
        first = bisect.bisect_left(self.at, start)
        last = bisect.bisect_left(self.at, end)
        probing = sum(self.took[first:last])
        around = self.took[max(first - 1, 0) : last + 1]
        wall = end - start - probing
        busy = min(max(cpu - probing, 0.0), wall)
        return wall - busy + busy * self.nominal / statistics.fmean(around)
