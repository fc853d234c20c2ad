"""Calibration kernel: a fixed pure-Python workload that tracks host speed.

Host speed on a shared VM flips between two levels about 1.6x apart,
often within a second, by far more than the changes the benchmark must
resolve.  Every timed item is therefore bracketed by this kernel, run
immediately before and after it, and sampled by a short run of it every
SAMPLE_INTERVAL_S while it runs.  Each kernel run gives a speed point
``(time, NOMINAL / kernel seconds)``; the item's raw seconds are scaled
to the nominal host by the mean of the speed, linearly interpolated
between consecutive points, over the item::

    normalised_s = raw_s * (1 / (end - start)) * integral speed(t) dt

The bracketing kernels are the points at ``start`` and ``end``, so an
item with no in-item point gets the mean of the two bracket speeds.

The kernel mixes what the simulator and compiler spend their time on in
CPython: integer arithmetic and bit operations, list indexing, dict
stores and lookups and small function calls.  It imports nothing from
``repro``.  The samples do run in the measured process, so the program
can reach them through the host: with a pool running, a sample reads a
different speed when it wakes an idle vCPU than when it pre-empts a
busy worker, so it would follow the pool's load.  A workload therefore
pauses sampling while pool jobs are in flight and takes a point on each
side of the pool batch instead (:meth:`Sampler.paused_for_pool`).
"""

from __future__ import annotations

import os
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Tuple

#: Median kernel time on the nominal host (2-vCPU x86-64 VM, CPython
#: 3.11).  A fixed constant: normalised seconds are "seconds on that
#: host", comparable across runs and commits.
NOMINAL_KERNEL_S = 0.004

#: Timed repetitions per kernel measurement; the median is reported so a
#: single scheduler blip does not skew a bracket.
REPETITIONS = 5

_ITERATIONS = 8000

#: In-item samples: a short kernel run from a SIGALRM handler every
#: SAMPLE_INTERVAL_S of wall time while an item runs.  Its nominal time
#: is measured on the nominal host like NOMINAL_KERNEL_S (a short run
#: from a handler pays for cold caches, so it is not a plain fraction).
SAMPLE_INTERVAL_S = 0.02
NOMINAL_SAMPLE_S = 0.0003
_SAMPLE_ITERATIONS = 500


def _mix(state: int, value: int) -> int:
    return ((state << 5) ^ (state >> 3) ^ value) & 0xFFFFFFFF


def _body(iterations: int = _ITERATIONS) -> int:
    table = list(range(256))
    seen = {}
    state = 0x2545F491
    for step in range(iterations):
        state = _mix(state, table[(state ^ step) & 255] + step)
        seen[state & 511] = step
        if state & 1:
            state ^= seen.get(step & 511, 0)
        table[step & 255] = state & 255
    return state


def mean_speed(points: List[Tuple[float, float]], start: float,
               end: float) -> float:
    """Mean over ``[start, end]`` of the speed interpolated linearly
    between ``points`` (``(time, speed)``, in time order) and held
    constant beyond the first and last."""
    if not points:
        raise ValueError("no speed points")

    def at(moment: float) -> float:
        if moment <= points[0][0]:
            return points[0][1]
        for (t0, s0), (t1, s1) in zip(points, points[1:]):
            if moment <= t1:
                return s0 if t1 == t0 else \
                    s0 + (s1 - s0) * (moment - t0) / (t1 - t0)
        return points[-1][1]

    if end <= start:
        return at(start)
    knots = [start] + [t for t, _ in points if start < t < end] + [end]
    area = sum((b - a) * (at(a) + at(b)) / 2.0
               for a, b in zip(knots, knots[1:]))
    return area / (end - start)


class Sampler:
    """Speed points taken while one item runs.

    ``points`` holds ``(time, speed)`` and ``cost_s`` the seconds the
    kernel runs took out of the item's wall time.
    """

    def __init__(self, calibrator: "Calibrator") -> None:
        self.calibrator = calibrator
        self.points: List[Tuple[float, float]] = []
        self.cost_s = 0.0
        self.paused = False

    def on_alarm(self, signum, frame) -> None:
        if self.paused:
            return
        start = perf_counter()
        _body(_SAMPLE_ITERATIONS)
        seconds = perf_counter() - start
        self.points.append((start + seconds / 2.0,
                            NOMINAL_SAMPLE_S / seconds))
        self.cost_s += seconds

    def pool_point(self) -> None:
        """A point for a pool that runs on every vCPU: the mean speed of
        one full kernel measurement pinned to each CPU this process may
        use (sampling is paused by the caller)."""
        start = perf_counter()
        cpus = os.sched_getaffinity(0)
        speeds = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                speeds.append(NOMINAL_KERNEL_S / self.calibrator.measure())
        finally:
            os.sched_setaffinity(0, cpus)
        self.points.append((start + (perf_counter() - start) / 2.0,
                            sum(speeds) / len(speeds)))
        self.cost_s += perf_counter() - start

    @contextmanager
    def paused_for_pool(self) -> Iterator[None]:
        """Run the ``with`` body (a pool batch) unsampled, with a pool
        point just before and just after it, when no pool job runs."""
        self.paused = True
        try:
            self.pool_point()
            yield
        finally:
            self.pool_point()
            self.paused = False


class Calibrator:
    """Runs the kernel on demand and keeps every measurement."""

    def __init__(self) -> None:
        # One untimed run warms the code object and fixes the checksum
        # every later run must reproduce (proof the work was done).
        self._checksum = _body()
        #: Every kernel measurement (median of REPETITIONS), in order.
        self.samples: List[float] = []

    def measure(self) -> float:
        """One kernel measurement in seconds."""
        times = []
        for _ in range(REPETITIONS):
            start = perf_counter()
            checksum = _body()
            times.append(perf_counter() - start)
            if checksum != self._checksum:
                raise RuntimeError("calibration kernel lost determinism")
        seconds = statistics.median(times)
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale from raw to nominal-host seconds for one bracket."""
        return NOMINAL_KERNEL_S / ((before + after) / 2.0)

    @contextmanager
    def sampling(self) -> Iterator[Sampler]:
        """Sample host speed while the ``with`` body runs."""
        sampler = Sampler(self)
        previous = signal.signal(signal.SIGALRM, sampler.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield sampler
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
