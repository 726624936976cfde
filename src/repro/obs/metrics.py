"""Named metrics registry: counters, time-weighted gauges, histograms.

Components register instruments by name instead of hand-rolling their own
bookkeeping; the registry owns the environment/trace wiring so a
:class:`~repro.simkernel.Counter` can mirror increments onto the trace
timeline and a :class:`~repro.simkernel.Gauge` integrates against sim
time.  A :meth:`Registry.snapshot` feeds the run-summary report.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from ..simkernel import Counter, Environment, Gauge, Trace

__all__ = ["Histogram", "Registry", "quantile"]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method).

    ``q`` in [0, 1]; raises on an empty sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    data = sorted(values)
    if not data:
        raise ValueError("empty sample")
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class Histogram:
    """Value reservoir with quantile summaries (queue waits, latencies)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile of the sample (0 for an empty one)."""
        if not self.values:
            return 0.0
        return quantile(self.values, q)

    def summary(self) -> dict:
        """count/mean/min/p50/p95/p99/max of the sample."""
        if not self.values:
            return {
                "count": 0, "mean": 0.0, "min": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": min(self.values),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": max(self.values),
        }


class Registry:
    """Instrument factory/lookup shared by every component of a platform.

    Calling an accessor twice with the same name returns the same
    instrument, so independent components can share (e.g.) one op
    counter without coordinating construction.
    """

    def __init__(self, env: Environment, trace: Optional[Trace] = None):
        self.env = env
        self.trace = trace
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, traced: bool = False) -> Counter:
        """Named monotonic counter; ``traced`` mirrors increments onto
        the trace (one record per incr — use for low-rate events)."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        if traced and self.trace is not None and not c.connected:
            c.connect(self.trace)
        return c

    def gauge(self, name: str, initial: float = 0.0) -> Gauge:
        """Named time-weighted gauge bound to the registry's clock."""
        g = self._gauges.get(name)
        if g is None:
            g = Gauge(self.env, initial)
            self._gauges[name] = g
        return g

    def histogram(self, name: str) -> Histogram:
        """Named histogram (value reservoir with quantiles)."""
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name)
            self._histograms[name] = h
        return h

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        """Lookup an instrument of any kind by name."""
        return (
            self._counters.get(name)
            or self._gauges.get(name)
            or self._histograms.get(name)
        )

    def names(self) -> list[str]:
        """All registered instrument names (sorted)."""
        return sorted(
            [*self._counters, *self._gauges, *self._histograms]
        )

    def gauge_series(self) -> dict[str, list[tuple[float, float]]]:
        """Every gauge's full ``(time, value)`` breakpoint series.

        Feeds the Chrome ``trace_event`` counter-track export: one
        Perfetto counter series per gauge (occupancy, queue depths).
        """
        return {
            name: self._gauges[name].series()
            for name in sorted(self._gauges)
        }

    def gauge_levels(self) -> dict[str, float]:
        """Current value of every gauge (sorted by name).

        The cheap sub-snapshot the live-progress heartbeat embeds:
        queue depths and occupancy levels without the per-instrument
        statistics :meth:`snapshot` computes.
        """
        return {
            name: self._gauges[name].value for name in sorted(self._gauges)
        }

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time view of every instrument, for reports/exports."""
        out: dict[str, dict] = {}
        for name, c in self._counters.items():
            out[name] = {"type": "counter", "value": c.value}
        for name, g in self._gauges.items():
            out[name] = {
                "type": "gauge",
                "value": g.value,
                "mean": g.mean(),
                "max": g.max(),
            }
        for name, h in self._histograms.items():
            out[name] = {"type": "histogram", **h.summary()}
        return out
