"""Summaries of timing samples: median, quartiles, minimum and tail."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def summarize(values: list[float]) -> dict:
    """Median, quartiles, min and count; plus the highest percentile that
    has at least ten samples beyond it, when there are enough samples."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4) if n > 1
                 else (vals[0], None, vals[0]))
    out = {"median": statistics.median(vals), "q1": q1, "q3": q3,
           "min": vals[0], "n": n}
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = vals[math.ceil(p / 100 * n) - 1]
            break
    return out


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
