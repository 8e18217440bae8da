"""Host speed: a fixed kernel timed between jobs, and times scaled by it.

On the shared host this benchmark was tuned on, a core's speed changes by up
to 1.5x for seconds to minutes at a time, with other tenants' load.  Raw job
times of one run then depend on which states the run happened to meet, and
two sets of ten runs differed by 29-54 % in their median job times.
So every time this benchmark reports is scaled to a reference host speed:

    reported = measured * REFERENCE_CAL_S / calibration

where ``calibration`` is the time of ``calibrate()`` taken right before and
after the measured interval on the same core.  The kernel is what the
program's hot loops are made of (calls, tuple keys, probes into a growing
dict), and shares no code with ``cordiality``, so a change to the program
cannot move it.  A plain integer loop tracked the slow states less well:
scaled by it, job times still spread 26 % against 11 % with this kernel.
The scale holds only for jobs whose slowdowns match the kernel's: the jobs
of a path table that fills 64 MB of transposition tables spread as much
scaled as raw.  The raw times and calibrations are kept in each run's
summary.
"""

from __future__ import annotations

import time

# Typical time of calibrate() on a 2 GHz Xeon core of the host the benchmark
# was tuned on, so that scaled times read close to that host's seconds.
REFERENCE_CAL_S = 0.05


def _probe(table: dict, key: tuple, depth: int) -> int:
    value = table.get(key)
    if value is None:
        value = table[key] = (key[0] * 2654435761 ^ depth) & 0xFFFFF
    return value


def calibrate() -> float:
    """Seconds for 60 000 seeded probes into a dict that grows to about
    55 000 tuple keys (about 50 ms)."""
    start = time.perf_counter()
    table: dict = {}
    x = acc = 1
    for i in range(60_000):
        x = (x * 1103515245 + 12345) & 0x3FFFF
        acc ^= _probe(table, (x, x & 7), i & 3)
    return time.perf_counter() - start


def scale(calibration_s: float) -> float:
    """Factor that turns a time measured beside ``calibration_s`` into
    reference-host seconds."""
    return REFERENCE_CAL_S / calibration_s
