"""Always-on lightweight telemetry: counters, gauges, histograms.

The flight recorder is opt-in and heavyweight (it stores every event);
production flows still need *some* numbers to be watchable at all
times. The :class:`Telemetry` registry is that layer: a handful of
plain-dict counters, last-value gauges and log-bucketed histograms that
are touched **only at control boundaries** — control-loop invocations
and snapshot collections, tens of simulated seconds apart — never
inside the per-tick or span data path. That is what keeps it inside
the <2 % overhead budget (the ``telemetry`` rows of
``benchmarks/test_bench_ratios.py`` check it) and what keeps
span-batched execution and the bit-exactness contract untouched: the
registry only ever *reads* simulation state, at times where every
pending capacity transition has already settled.

Unlike the recorder, telemetry is on by default for every managed flow
(``FlowBuilder.telemetry(False)`` disables it) and is exported on the
run result, the dashboard's telemetry row, and the run scorecard.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.errors import MonitoringError

#: Histogram bucket upper bounds (unit-agnostic powers of 2, capacity
#: steps and control errors both fit); the final bucket is overflow.
HISTOGRAM_BOUNDS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


class Histogram:
    """Fixed-bound bucket histogram with count/total/max."""

    __slots__ = ("bounds", "buckets", "count", "total", "maximum")

    def __init__(self, bounds: tuple[float, ...] = HISTOGRAM_BOUNDS) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.maximum,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class Telemetry:
    """Named counters, gauges and histograms for one managed flow."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Writing (control boundaries only — never the per-tick data path)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to counter ``name``."""
        if amount < 0:
            raise MonitoringError(f"counter {name!r}: increment must be >= 0, got {amount}")
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest sampled value."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self.gauges.get(name, default)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot (scorecards, exports, dashboards)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def rows(self) -> list[list[str]]:
        """Dashboard rows: every counter and gauge, name-sorted."""
        rows = [
            [name, f"{value:g}", "counter"]
            for name, value in sorted(self.counters.items())
        ]
        rows += [
            [name, f"{value:g}", "gauge"]
            for name, value in sorted(self.gauges.items())
        ]
        rows += [
            [name, f"n={h.count} mean={h.mean:g} max={h.maximum:g}", "histogram"]
            for name, h in sorted(self.histograms.items())
        ]
        return rows

    def render(self) -> str:
        """Text digest used by ``FlightRecorder``-less summaries."""
        lines = ["telemetry:"]
        for name, value, kind in self.rows():
            lines.append(f"  {name:<36} {value:>24}  [{kind}]")
        return "\n".join(lines)
