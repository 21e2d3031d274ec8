"""Host-speed correction for the benchmark's pass times.

The benchmark runs on hosts that share their cores with other machines.
There the same pass can take 1.5x as long from one minute to the next,
while the process still gets the whole CPU (steal stays near 0 and CPU time
tracks wall time): the core itself runs slower.  A run's median cannot
average that away, because a slow phase can outlast a whole run.

A `Probe` measures the host's speed while a pass runs.  A timer signal
interrupts the pass every `INTERVAL` seconds and times one of three small
fixed kernels, in turn, written to resemble the program's interpreted
work: a dict loop, frozenset and tuple building, and float arithmetic.  Each kernel also runs
a few times just before and after the pass, so a short pass still gets
samples.  The kernels run as the pass left the caches, which tracked the
passes' wall times better than warm kernels, lookups in a larger table or
small numpy calls.  The host's slowness is the
geometric mean, over the kernels, of the median sample time divided by the
kernel's nominal time.  A corrected pass time is the pass's wall time, less
the time the kernels took inside it, divided by that slowness: seconds on a
host where the kernels take their nominal times.

The kernels are the benchmark's own code and do not import approxdiag, so
a change to the program moves corrected times exactly as it moves wall
times on a steady host.  This module imports only modules a fresh
interpreter has loaded anyway or builds in, so timing an interpreter's
`import approxdiag` under a probe does not make the import cheaper.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

INTERVAL = 0.03  # seconds between in-pass samples
BRACKET = 1  # runs of each kernel just before and just after a pass
# Median kernel times, in seconds, inside e1-refute passes on a 2-core x86
# VM when its host was quiet, so that corrected times there read close to
# wall times.  They only fix the scale of corrected times.
NOMINAL = (230e-6, 195e-6, 75e-6)


def _median(values):
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


class Reading:
    """Kernel samples taken around and inside one timed block."""

    def __init__(self):
        self.samples = tuple([] for _ in NOMINAL)
        self.inside_seconds = 0.0  # kernel time spent inside the block

    def slowness(self) -> float:
        """Geometric mean of median kernel time over nominal time."""
        logs = [math.log(_median(s) / n) for s, n in zip(self.samples, NOMINAL)]
        return math.exp(sum(logs) / len(logs))

    def corrected(self, seconds: float) -> float:
        """A block's wall seconds without the kernels, at nominal speed."""
        return (seconds - self.inside_seconds) / self.slowness()


class Probe:
    """Fixed reference kernels, timed in and around a block of work."""

    def __init__(self):
        self.kernels = (self._dict_loop, self._set_building, self._float_math)
        self._next = 0
        self._reading: Reading | None = None

    @staticmethod
    def _dict_loop():
        d, s = {}, 0
        for i in range(2000):
            d[i & 255] = i
            s += d.get((i * 7) & 255, 0)
        return s

    @staticmethod
    def _set_building():
        out = []
        for i in range(300):
            out.append(frozenset((i, i + 1, (i * 5) % 17)))
            out.append((i, (i, i + 1)))
        return len(out)

    @staticmethod
    def _float_math():
        x, y = 0.5, 0.25
        for _ in range(600):
            x = x * 0.999 + math.sin(y) * 0.001
            y = abs(y - x) + 1e-3
        return x

    def _sample(self, k: int) -> float:
        t0 = time.perf_counter()
        self.kernels[k]()
        seconds = time.perf_counter() - t0
        self._reading.samples[k].append(seconds)
        return seconds

    def _on_alarm(self, signum, frame):
        self._reading.inside_seconds += self._sample(self._next % len(self.kernels))
        self._next += 1

    def _bracket(self):
        for _ in range(BRACKET):
            for k in range(len(self.kernels)):
                self._sample(k)

    @contextmanager
    def sampling(self, interval=INTERVAL):
        """Yield a `Reading` that fills while the block runs."""
        self._reading = reading = Reading()
        self._bracket()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._bracket()
        self._reading = None
