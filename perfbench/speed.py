"""CPU time scaled to a fixed reference speed.

On the 2-core virtual machine this benchmark was built on, the speed of a
CPU changes in regimes that last seconds to tens of seconds: a fixed
pure-Python loop read 1.4 ms per call on one CPU and 2.1-2.5 ms on the
other at the same moment, and the same CPU switched between the two levels
within a minute.  CPU time does not remove this (it is the same work done
slower), so ``setup_s`` of one fixed polytope moved by up to 1.85x between
consecutive samples.

Three measures make the timings repeat:

- the benchmark and its CLI children run on one CPU (``pin_to_one_cpu``),
  so that the work and the reference below see the same regime;
- every timed sample is scaled by ``REFERENCE_S / r``, where ``r`` is the
  CPU time of a fixed reference loop measured right before and right after
  the sample (``Calibrator.factor``).  The reference does what the program
  does most, Python loops over tiny numpy arrays, and touches nothing of
  the program, so a change to the program moves the scaled time exactly as
  it moves the raw time;
- a CLI child runs for seconds, long enough for the speed to change while
  it runs, so while it runs a thread of the benchmark repeats the reference
  loop on the same CPU (``Monitor``), and the child's time is scaled by the
  median of those loops.  The thread sleeps 4/5 of the time, so the child
  keeps most of the CPU; the scale does not depend on that share, since
  both count CPU time only.

In a 300 s trial that timed set-up, batch and point evaluation in turn,
each bracketed so, the median over 25 s windows moved by 12-16 % (quartile
spread over the window start) unscaled and by 2-5 % scaled.  A pure-Python
or an elementwise-numpy reference tracked the program less well.

The scaled figures are CPU seconds at the speed where the reference loop
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

clock = time.process_time
REFERENCE_S = 0.002   # CPU time of one reference loop at the reference speed
_MATRIX = np.array([[4.0, 1.0, -2.0, 0.5, 3.0],
                    [1.0, -5.0, 0.25, 2.0, -1.0],
                    [-2.0, 0.75, 6.0, -1.5, 0.5],
                    [3.0, 2.0, -1.0, 4.5, 1.25],
                    [0.5, -1.0, 2.5, 1.0, -3.5]])


def reference_loop() -> None:
    """Fixed work: 30 partial-pivot LU factorizations of a 5x5 matrix, one
    numpy call per step."""
    for _ in range(30):
        a = _MATRIX.copy()
        for k in range(5):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if p != k:
                a[[k, p]] = a[[p, k]]
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= a[k + 1:, k, None] * a[k, k + 1:]


def reference_time() -> float:
    """CPU seconds of one reference loop, the median of three."""
    times = []
    for _ in range(3):
        start = clock()
        reference_loop()
        times.append(clock() - start)
    return statistics.median(times)


class Calibrator:
    """Brackets timed work with reference measurements."""

    def __init__(self) -> None:
        self.last = reference_time()
        self.factors: list[float] = []   # every scale, for the record

    def factor(self) -> float:
        """Scale for CPU time spent since the previous call: the nominal
        reference time over the mean of the references on both sides."""
        before, self.last = self.last, reference_time()
        factor = REFERENCE_S / (0.5 * (before + self.last))
        self.factors.append(factor)
        return factor


class Monitor:
    """Repeats the reference loop in a thread while a child process runs;
    ``factor`` is the nominal reference time over their median."""

    PAUSE_S = 0.008

    def __init__(self) -> None:
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:   # at least one loop, so that factor() has a median
            start = time.thread_time()
            reference_loop()
            self.times.append(time.thread_time() - start)
            if self._stop.wait(self.PAUSE_S):
                return

    def __enter__(self) -> "Monitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.times)


def pin_to_one_cpu() -> set[int]:
    """Run this process, and the children it starts, on its first allowed
    CPU; returns the CPUs allowed before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed
