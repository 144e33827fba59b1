"""CPU-speed normalisation of wall-clock intervals.

On a host whose cores are shared with other tenants, the effective speed of a
core changes from one second to the next: a fixed 4x4 commutator loop was
measured at 12 ms in some seconds and 25 ms in others, and raw pass times of
``feedback_presets`` spread by 20% between runs. The benchmark therefore
reports times in reference seconds: seconds on a core where ``kernel`` takes
``REFERENCE_S``, about its uncontended time on the 2-vCPU Xeon this benchmark
was written on.

While a ``SpeedProbe`` is active, a SIGALRM handler runs ``kernel`` (40 small
complex matrix products, the same kind of work as bellsteer's right-hand
side) every ``INTERVAL_S`` in the measuring thread, so it sees the core the
workload is running on. Processes forked meanwhile, such as the workers of
``run_sweep``'s pool, probe themselves the same way. ``normalize`` takes an
interval's raw length minus the measuring thread's probe time and multiplies
it by the mean of ``REFERENCE_S / kernel time`` over the probes inside the
interval. A fixed reference, rather than the fastest probe of each run, also
cancels slower phases that last a whole run.
"""

from __future__ import annotations

import bisect
import mmap
import os
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 2.5e-4
CHILD_SLOTS = 64
CHILD_CAPACITY = 1024

_A = np.eye(4, dtype=complex) * (1 + 1j)
_B = np.ones((4, 4), dtype=complex)


def kernel() -> float:
    """Seconds taken by one fixed burst of 4x4 complex matrix work."""
    t0 = perf_counter()
    x = _B
    for _ in range(40):
        x = -1j * (_A @ x - x @ _A) * 1e-3 + _B
    return perf_counter() - t0


class SpeedProbe:
    """Samples ``kernel`` every ``INTERVAL_S`` while active, in the measuring
    thread and in every process forked from it meanwhile (such as the workers
    of a process pool), which write their samples to shared memory."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        # (start, duration) pairs, CHILD_CAPACITY per forked child, in an
        # anonymous mapping that forked children share.
        self._mapping = mmap.mmap(-1, CHILD_SLOTS * CHILD_CAPACITY * 2 * 8)
        self._shared = np.frombuffer(self._mapping, dtype=float).reshape(CHILD_SLOTS, CHILD_CAPACITY, 2)
        self._forks = 0
        self._slot: int | None = None  # set in a forked child
        self._count = 0
        self._active = False
        self._previous = None
        # Fork hooks cannot be unregistered; they do nothing once the probe exits.
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork_in_child)

    def _sample(self, signum, frame) -> None:
        start, duration = perf_counter(), kernel()
        if self._slot is None:
            self.starts.append(start)
            self.durations.append(duration)
        elif self._count < CHILD_CAPACITY:
            self._shared[self._slot, self._count] = start, duration
            self._count += 1

    def _before_fork(self) -> None:
        self._forks += self._active

    def _after_fork_in_child(self) -> None:
        if self._active and self._forks <= CHILD_SLOTS:
            self._slot = self._forks - 1
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def factor(durations) -> float:
        """Mean speed at the given kernel times relative to the reference."""
        return float(np.mean(REFERENCE_S / np.asarray(durations)))

    def _child_samples(self, t0: float, t1: float) -> np.ndarray:
        pairs = self._shared.reshape(-1, 2)
        inside = (pairs[:, 1] > 0) & (pairs[:, 0] >= t0) & (pairs[:, 0] <= t1)
        return pairs[inside, 1]

    def normalize(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] in reference seconds.

        When forked children were probed inside the interval, they did the
        work, so their speed is used; the parent only waited for them.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        children = self._child_samples(t0, t1)
        if len(children):
            speed = self.factor(children)
        elif inside:
            speed = self.factor(inside)
        else:  # shorter than one interval: use the next probe, or the last
            speed = self.factor([self.durations[min(lo, len(self.starts) - 1)]])
        return (t1 - t0 - sum(inside)) * speed
