"""Host speed, sampled during a timed pass, and times rescaled by it.

The benchmark runs on shared virtual machines whose speed moves by tens
of percent over seconds and minutes while the program's work stays the
same.  ``SpeedProbe`` samples that speed while a pass runs: every
``INTERVAL_S`` of wall time a timer signal interrupts the program between
two bytecodes and times ``reference_loop``, a fixed piece of pure-Python
dict and tuple work, in the same process and on the same core as the
program.  A pass's *reference time* is the time the pass would have taken
had every sample run at ``REFERENCE_S``:

    (wall - time spent in the probe) * mean(REFERENCE_S / sample)

The mean of the inverse is the mean speed over the pass, because the
samples are equally spaced in time.  Each sample times the loop's second
run of two, so what the program left in the caches barely shows in it.
``REFERENCE_S`` is a round figure near the loop's fastest duration on the
two-vCPU x86-64 host with Python 3.11.7 the benchmark was defined on; it
only scales the figures.  A change to the program moves the reference
time as it moves the wall time at a fixed host speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_ITERATIONS = 5000
REFERENCE_S = 0.001
INTERVAL_S = 0.1


def reference_loop() -> int:
    """A fixed amount of interpreter work: tuple keys in a small dict."""
    table: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
    return len(table)


def sample() -> tuple[float, float]:
    """(seconds a warm ``reference_loop`` takes now, seconds spent here).

    The collector is off meanwhile: a collection of the program's objects
    is the program's work, and it would make the sample slow at random.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        warm = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return end - warm, end - start


def speed_now(count: int = 5) -> float:
    """Host speed now, 1.0 at ``REFERENCE_S``: the median of ``count`` samples."""
    return REFERENCE_S / statistics.median(sample()[0] for _ in range(count))


class SpeedProbe:
    """Samples host speed every ``INTERVAL_S`` while it is active.

    Use as a context manager around one pass; a sample is also taken on
    entry and on exit, so even a short pass has two.  The timer signal is
    only delivered to this process (forked workers do not inherit it).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _on_timer(self, signum, frame) -> None:
        seconds, cost = sample()
        self.samples.append(seconds)
        self.probe_s += cost

    def __enter__(self) -> "SpeedProbe":
        self.samples = [sample()[0]]
        self.probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample()[0])

    def speed(self) -> float:
        """Mean host speed over the pass, 1.0 at ``REFERENCE_S`` per sample."""
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def reference_time(self, wall: float) -> float:
        """``wall`` of the pass, less the probe, at the reference speed."""
        return (wall - self.probe_s) * self.speed()
