"""Opt-in wall-clock profiling of the simulation engine's tick loop.

The engine "routinely executes hundreds of thousands of ticks inside
the benchmark suite", so knowing where those ticks spend their time is
the difference between guessing and measuring when optimising the hot
path. The :class:`TickProfiler` accumulates, per component and per
periodic task, cumulative wall-clock seconds and call counts, plus a
log-bucketed histogram of whole-tick durations.

The profiler is attached to :class:`~repro.simulation.engine
.SimulationEngine` via its ``profiler`` field; with no profiler the
engine runs its original allocation-free loop, so the disabled cost is
one attribute check per *run*, not per tick.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

from repro.core.errors import MonitoringError

#: Upper bounds (seconds) of the tick-duration histogram buckets; the
#: final bucket is the overflow (> last bound).
HISTOGRAM_BOUNDS: tuple[float, ...] = (
    2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 5e-2, 1e-1,
)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


class TickProfiler:
    """Per-component / per-task cumulative timing and a tick histogram."""

    def __init__(self) -> None:
        self.component_seconds: dict[str, float] = {}
        self.component_calls: dict[str, int] = {}
        self.task_seconds: dict[str, float] = {}
        self.task_calls: dict[str, int] = {}
        #: Per-flow attribution in fleet runs: which flow's spans
        #: consume the fleet executor's time. Empty outside fleet span
        #: runs (the single-flow pipeline is already one component).
        self.flow_seconds: dict[str, float] = {}
        self.flow_calls: dict[str, int] = {}
        self.tick_count = 0
        #: Batched spans executed (0 on a pure per-tick run) — the
        #: marker that distinguishes span-batched from per-tick
        #: profiles in archived exports.
        self.span_count = 0
        self.tick_seconds_total = 0.0
        self.tick_seconds_max = 0.0
        self.histogram = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    # ------------------------------------------------------------------
    # Recording (called from the engine's instrumented loop)
    # ------------------------------------------------------------------
    def record_component(self, name: str, elapsed: float) -> None:
        self.component_seconds[name] = self.component_seconds.get(name, 0.0) + elapsed
        self.component_calls[name] = self.component_calls.get(name, 0) + 1

    def record_task(self, name: str, elapsed: float) -> None:
        self.task_seconds[name] = self.task_seconds.get(name, 0.0) + elapsed
        self.task_calls[name] = self.task_calls.get(name, 0) + 1

    def record_flow(self, name: str, elapsed: float) -> None:
        """Attribute a slice of a fleet executor's span to one flow.

        Flow time is a *breakdown* of the executor component's time,
        not an addition to it: ``instrumented_seconds`` intentionally
        excludes it, or the executor's work would count twice.
        """
        self.flow_seconds[name] = self.flow_seconds.get(name, 0.0) + elapsed
        self.flow_calls[name] = self.flow_calls.get(name, 0) + 1

    def record_tick(self, elapsed: float) -> None:
        self.tick_count += 1
        self.tick_seconds_total += elapsed
        if elapsed > self.tick_seconds_max:
            self.tick_seconds_max = elapsed
        self.histogram[bisect_left(HISTOGRAM_BOUNDS, elapsed)] += 1

    def record_span(self, ticks: int, elapsed: float) -> None:
        """Account a whole span of ``ticks`` ticks that took ``elapsed``.

        Span execution times the span as a unit, so per-tick durations
        are attributed at the span's mean: ``tick_count`` and the
        histogram advance by ``ticks`` (keeping ``sum(histogram) ==
        tick_count``), and the max tracks the mean-per-tick — the
        per-tick resolution inside a span is intentionally given up for
        the speed of not calling ``perf_counter`` twice per tick.
        """
        if ticks <= 0:
            return
        self.span_count += 1
        self.tick_count += ticks
        self.tick_seconds_total += elapsed
        mean = elapsed / ticks
        if mean > self.tick_seconds_max:
            self.tick_seconds_max = mean
        self.histogram[bisect_left(HISTOGRAM_BOUNDS, mean)] += ticks

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def instrumented_seconds(self) -> float:
        """Total time attributed to components and tasks.

        Always at most :attr:`tick_seconds_total` (each tick's duration
        wraps its components' and tasks' durations); the difference is
        the engine's own loop overhead plus hooks.
        """
        return sum(self.component_seconds.values()) + sum(self.task_seconds.values())

    def mean_tick_seconds(self) -> float:
        return self.tick_seconds_total / self.tick_count if self.tick_count else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot, used by the JSONL exporter."""
        return {
            "ticks": self.tick_count,
            "spans": self.span_count,
            "tick_seconds_total": self.tick_seconds_total,
            "tick_seconds_max": self.tick_seconds_max,
            "components": {
                name: {"seconds": seconds, "calls": self.component_calls[name]}
                for name, seconds in self.component_seconds.items()
            },
            "tasks": {
                name: {"seconds": seconds, "calls": self.task_calls[name]}
                for name, seconds in self.task_seconds.items()
            },
            "flows": {
                name: {"seconds": seconds, "calls": self.flow_calls[name]}
                for name, seconds in self.flow_seconds.items()
            },
            "histogram_bounds": list(HISTOGRAM_BOUNDS),
            "histogram": list(self.histogram),
        }

    def summary(self) -> str:
        """Text report: per-component/task totals and the tick histogram."""
        lines = [
            f"ticks: {self.tick_count}  "
            f"total {_format_seconds(self.tick_seconds_total)}  "
            f"mean {_format_seconds(self.mean_tick_seconds())}  "
            f"max {_format_seconds(self.tick_seconds_max)}"
        ]
        entries: list[tuple[str, str, float, int]] = [
            ("component", name, seconds, self.component_calls[name])
            for name, seconds in self.component_seconds.items()
        ] + [
            ("task", name, seconds, self.task_calls[name])
            for name, seconds in self.task_seconds.items()
        ] + [
            ("flow", name, seconds, self.flow_calls[name])
            for name, seconds in self.flow_seconds.items()
        ]
        for kind, name, seconds, calls in sorted(entries, key=lambda e: -e[2]):
            share = 100.0 * seconds / self.tick_seconds_total if self.tick_seconds_total else 0.0
            lines.append(
                f"  {kind:<9} {name:<28} {_format_seconds(seconds):>10} "
                f"({share:4.1f}%)  {calls} calls"
            )
        populated = [
            (bound, count)
            for bound, count in zip((*HISTOGRAM_BOUNDS, float("inf")), self.histogram)
            if count
        ]
        if populated:
            lines.append("  tick-time histogram (upper bound: ticks):")
            for bound, count in populated:
                label = _format_seconds(bound) if bound != float("inf") else "overflow"
                lines.append(f"    <= {label:>8}: {count}")
        return "\n".join(lines)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TickProfiler":
        """Rebuild a profiler snapshot from :meth:`as_dict` output."""
        profiler = cls()
        profiler.tick_count = int(data.get("ticks", 0))
        profiler.span_count = int(data.get("spans", 0))
        profiler.tick_seconds_total = float(data.get("tick_seconds_total", 0.0))
        profiler.tick_seconds_max = float(data.get("tick_seconds_max", 0.0))
        for name, entry in dict(data.get("components", {})).items():
            profiler.component_seconds[name] = float(entry["seconds"])
            profiler.component_calls[name] = int(entry["calls"])
        for name, entry in dict(data.get("tasks", {})).items():
            profiler.task_seconds[name] = float(entry["seconds"])
            profiler.task_calls[name] = int(entry["calls"])
        for name, entry in dict(data.get("flows", {})).items():
            profiler.flow_seconds[name] = float(entry["seconds"])
            profiler.flow_calls[name] = int(entry["calls"])
        histogram = list(data.get("histogram", []))
        if histogram:
            # A snapshot from a different bucket layout cannot be
            # loaded into this one — dropping it silently would report
            # an all-zero histogram against a non-zero tick count.
            if len(histogram) != len(profiler.histogram):
                raise MonitoringError(
                    f"profile histogram has {len(histogram)} buckets, "
                    f"expected {len(profiler.histogram)} "
                    f"(mismatched HISTOGRAM_BOUNDS?)"
                )
            profiler.histogram = [int(c) for c in histogram]
        return profiler
