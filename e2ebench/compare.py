"""Sample summaries and the A/B decision rule.

The rule, for one metric on one workload, from pairs of runs of the
parent and the change made with identical benchmark code:

* ``gain`` — the change reads better in at least 9 of every 10 pairs
  (ties count for neither side) and its median beats the parent's by
  more than the parent's interquartile range;
* ``unresolved`` — otherwise, when either side's interquartile range
  exceeds the metric's bound (as a share of its median), unless every
  run of the change reads better than every run of the parent;
* ``regression`` — otherwise, when the change's median is worse than the
  parent's by more than the bound;
* ``unchanged`` — everything else.
"""

from __future__ import annotations

import statistics


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: list) -> dict:
    """Median with min, quartiles, max and the sample count."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "n": len(values),
    }


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Apply the decision rule to paired samples (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, base, q3 = quartiles(parent)
    median = quartiles(change)[1]
    gain = sign * (median - base)
    worse = -gain / abs(base) if base else 0.0
    noise = max(spread(parent), spread(change))
    if sign > 0:
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        label = "gain"
    elif noise > bound and not dominates:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "parent": summary(parent),
        "change": summary(change),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "ratio": median / base if base else float("inf"),
        "spread": noise,
    }
