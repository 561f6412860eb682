"""How fast the host's CPUs run right now, sampled while a unit runs.

The reference host's CPUs slow down by up to 1.6x for spells of a
fraction of a second to hours, each vCPU on its own, while nothing in
the benchmark's own VM competes for them (CPU time then equals wall
time; no steal is reported). Wall times of CPU-bound work move with
those spells: 10-20% between runs minutes apart, 60% between a fast
and a slow hour.

:class:`SpeedProbe` is a thread of the benchmark process that, every
:data:`EVERY_S`, pins itself to the next CPU in turn, times a fixed
pure-Python loop in thread CPU time, and records the sample as a speed,
``REF_NS / sample``. A CPU-bound interval's wall time is then scaled to
the reference CPU, one that runs the loop in :data:`REF_NS`:
``wall * speed ** SENSITIVITY``, with ``speed`` the mean of the samples
taken inside the interval.

The ``repro`` CLI slows down more than the probe loop does in the same
spell: its wall time goes as the probe's speed to the power
:data:`SENSITIVITY`. On the reference host, fits of that power over 10-26
units of one workload gave 1.2 to 1.6. Over three sets of ten runs per
workload, taken in fast and slow hours (median probe speed 1.04, 0.76
and 0.90), 1.4 gave the smallest worst case: spread within a set
(interquartile range over median) 0.054 at most, and set medians within
4.2% of each other; a power of 1 gave 0.091 and 16.7%.

The thread pins only itself; processes the benchmark spawns inherit the
main thread's CPU set.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Optional, Tuple

#: iterations of the probe loop
LOOP = 14_000
#: the loop's thread CPU time on the reference CPU: the fast state of a
#: 2 vCPU Xeon at 2.0 GHz (p10 of 722 samples 0.98 ms, median 1.31 ms)
REF_NS = 1_000_000
#: seconds between samples: ~2.5% of one CPU
EVERY_S = 0.04
#: how much more the measured CLI slows down than the probe loop
SENSITIVITY = 1.4


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


class SpeedProbe:
    """Background sampler of CPU speed; use as a context manager."""

    def __init__(self) -> None:
        #: (time.perf_counter(), REF_NS / loop CPU ns): speed 1.0 is the
        #: reference CPU, 0.7 one that is 1.4x slower
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        try:
            self._cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self._cpus = []

    def __enter__(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-probe")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(EVERY_S):
            if self._cpus:
                try:
                    os.sched_setaffinity(
                        0, {self._cpus[turn % len(self._cpus)]})
                except OSError:
                    self._cpus = []
                turn += 1
            t0 = time.thread_time_ns()
            _loop()
            cpu_ns = max(1, time.thread_time_ns() - t0)
            self.samples.append((time.perf_counter(), REF_NS / cpu_ns))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` (``time.perf_counter``
        seconds): the samples inside it, else the one nearest its
        middle, else 1.0."""
        samples = self.samples[:]
        if not samples:
            return 1.0
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
        if hi > lo:
            return sum(s for _, s in samples[lo:hi]) / (hi - lo)
        mid = (start + end) / 2
        return min(samples, key=lambda s: abs(s[0] - mid))[1]

    def scale(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` on the reference CPU."""
        return (end - start) * self.speed(start, end) ** SENSITIVITY
