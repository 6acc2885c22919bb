"""Host-speed calibration for the benchmark's timings.

Small shared hosts change speed in phases: on the 2-core VM this
benchmark was built on, a fixed pure-Python loop ran at one speed for
seconds to minutes, then up to 1.5 times slower, and whole runs fell
in one phase.  Neither a longer run nor a median over passes removes
that, so every timed stretch of work is bracketed by a short fixed
probe and rescaled by ``REFERENCE_S / probe seconds``.  Timings then
read as seconds on a host where the probe takes REFERENCE_S, and a
slow phase scales the probe and the work alike.  The probe is
benchmark code: it does not change when the program does.
"""

from __future__ import annotations

import statistics
import time

#: Probe seconds on the reference host in an undisturbed phase.
REFERENCE_S = 0.0023


def _work() -> int:
    # the engine's instruction mix: bit tricks on ints, a dict, a loop
    total = 0
    seen = {}
    for i in range(2000):
        mask = (i * 2654435761) & 0xFFFFF
        while mask:
            low = mask & -mask
            total += low.bit_length()
            mask ^= low
        seen[i & 255] = total
    return total


def probe() -> float:
    """Median seconds of three runs of the probe."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Multiplier that rescales work timed between two probes."""
    return REFERENCE_S / ((before + after) / 2)
