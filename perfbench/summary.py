"""Reductions of per-report results to the benchmark's end-to-end metrics."""

from __future__ import annotations

import math
import statistics


def report_p50(seconds, failed, wall):
    """Median time of one report; a failed report ranks slower than every completed one.

    When the median falls on failed reports it has no finite value, and the
    run's wall time ``wall`` is reported in its place.
    """
    ranked = sorted(math.inf if f else t for t, f in zip(seconds, failed))
    p50 = statistics.median(ranked)
    return wall if math.isinf(p50) else p50


def fail_ratio(failed):
    """Failed reports over attempted reports."""
    return sum(1 for f in failed if f) / len(failed)


def points_per_s(points, failed, wall):
    """Sample points of completed, correct reports per second of wall time."""
    return sum(p for p, f in zip(points, failed) if not f) / wall


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) of repeated measurements.

    The spread is NaN when the median is 0.
    """
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else math.nan
