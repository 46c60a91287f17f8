"""A fixed pure-Python reference loop that gauges momentary host speed.

Other tenants of a shared machine slow every instruction this process
runs, in bursts of a second or less and in drifts over minutes; wall and
CPU time slow alike. The benchmark runs :func:`probe` before and after
each timed sample (each import, each set-up, each design point), outside
the timings, and rescales the sample to the speed at which one probe
unit takes :data:`REFERENCE_S`. It prints the raw seconds beside the
adjusted ones; ``hostbench/README.md`` records how much this narrows
the spread.

The loop allocates nothing and runs with the garbage collector off, so
the harness's heap cannot change its time, and it uses only the
interpreter, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import gc
import time

#: Seconds per probe unit that define "reference speed". A constant, so
#: adjusted figures of different runs and commits compare directly.
REFERENCE_S = 0.0035

_TABLE = [0] * 1024


def _unit() -> int:
    table = _TABLE
    acc = 0
    for i in range(20000):
        key = (i * 7919) & 1023
        value = table[key]
        table[key] = (value + i) & 0xFFFF
        acc ^= value
    return acc


def probe(units: int = 3) -> float:
    """Mean seconds of one probe unit over *units* back-to-back runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            _unit()
        return (time.perf_counter() - start) / units
    finally:
        if enabled:
            gc.enable()


def adjust(samples: list[float], speeds: list[float]) -> list[float]:
    """Each sample rescaled to reference speed, given its probe reading."""
    return [raw * REFERENCE_S / speed for raw, speed in zip(samples, speeds)]


def pass_factor(points: list[float], speeds: list[float]) -> float:
    """Time-weighted adjustment factor of a pass, from its points.

    Applied to the pass's wall and CPU time, so the seconds outside
    any point (the loop between figures) scale like the points do.
    """
    return sum(adjust(points, speeds)) / sum(points)


def bracket(readings: list[float]) -> list[float]:
    """Per sample, the mean of the probe readings just before and after it."""
    return [(a + b) / 2 for a, b in zip(readings, readings[1:])]
