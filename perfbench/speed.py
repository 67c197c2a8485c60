"""Scaling timings to a reference host speed.

The host is shared: other tenants slow this process by up to 2x, in
phases that last seconds to minutes, which no run length averages
away.  So the benchmark times a fixed pure-Python reference loop next
to every measurement and scales the measurement to a host on which
that loop takes REFERENCE_NS: an uncontended core of the 2-core x86-64
machine the benchmark was tuned on, running Python 3.11.

What is scaled is the thread's CPU time of an operation, not its wall
time.  An operation of several milliseconds is often descheduled in
the middle, for a share of its time that the reference reading before
it cannot see; on such a host the wall-clock p95 of scenario-replay
spread 0.18 over five seeds, its scaled CPU-time p95 0.05.  The
program is single-threaded and its clock is simulated, so on an idle
host the two agree; time spent waiting for the file system is left
out.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

REFERENCE_LOOPS = 300
REFERENCE_NS = 17_000
SMOOTH = 10  # readings on each side of an operation's own


def reference_ns() -> int:
    """Time of a fixed pure-Python loop: how fast the host runs us now."""
    t0 = perf_counter_ns()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i * i % 7
    return perf_counter_ns() - t0


def local_references(readings: list[int]) -> list[float]:
    """Per reading, the median of it and its SMOOTH neighbours each side."""
    return [
        statistics.median(readings[max(0, i - SMOOTH): i + SMOOTH + 1])
        for i in range(len(readings))
    ]


def factors(readings: list[int]) -> list[float]:
    """Per reading, the factor that takes a time to the reference host."""
    return [REFERENCE_NS / ref for ref in local_references(readings)]


def scale(latencies: list[int], readings: list[int]) -> list[float]:
    """Latencies as on the reference host, given the reading before each."""
    return [lat * f for lat, f in zip(latencies, factors(readings))]


def timed(fn) -> float:
    """Scaled ns of one call of ``fn``, with a reading just before it."""
    ref = reference_ns()
    t0 = perf_counter_ns()
    fn()
    return (perf_counter_ns() - t0) * REFERENCE_NS / ref
