"""Arithmetic the benchmark reports with, kept free of I/O so it can be tested.

Nothing here imports the simulator: the quantile rule, the spread
statistic and the span self-time bookkeeping are checked on their own by
``hostbench/tests``.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = 10,
) -> float | None:
    """``percentile(values, q)`` when at least *min_beyond* samples lie beyond it.

    A high percentile read off a handful of samples is one sample, not a
    tail; the benchmark prints such a percentile only when ten or more
    samples are strictly greater than it, and returns ``None`` otherwise.
    """
    if not values:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= min_beyond else None


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)``, the
    statistic the steadiness record uses.
    """
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty sample)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def self_times(
    spans: Sequence[tuple[str, int | None, float]],
) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    *spans* holds ``(name, parent_index, duration)`` with parents listed
    before their children. Children of one parent never overlap (calls
    nest on one thread), so the time children cover is the sum of their
    durations, and the self times of a tree add up to its root's
    duration.
    """
    child_total = [0.0] * len(spans)
    for index, (_, parent, duration) in enumerate(spans):
        if parent is not None:
            if not 0 <= parent < index:
                raise ValueError(f"span {index} has parent {parent}")
            child_total[parent] += duration
    return [duration - child_total[i] for i, (_, _, duration) in enumerate(spans)]
