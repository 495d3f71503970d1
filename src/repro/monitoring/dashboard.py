"""The all-in-one-place visualizer, rendered as text.

The demo's web dashboard (Figs. 5–6) becomes a terminal dashboard with
the same information content: one panel per measure across every layer,
with a sparkline of recent history, the current value and min/max. It
renders from a :class:`~repro.monitoring.collector.MetricCollector`, so
whatever the collector consolidates, the dashboard shows in one place.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import MonitoringError
from repro.monitoring.collector import MetricCollector

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Unicode sparkline of a series, downsampled to ``width`` cells."""
    if width <= 0:
        raise MonitoringError(f"width must be positive, got {width}")
    if not values:
        return " " * width
    values = list(values)
    if len(values) > width:
        # Bucket-mean downsampling keeps shape without aliasing spikes
        # away. Integer bucket bounds i*n//width partition the series
        # exactly: every sample lands in exactly one bucket (float
        # bucket arithmetic here used to drop trailing samples, e.g.
        # the last of 15 samples at width 11) and the divisor is the
        # true bucket size.
        n = len(values)
        values = [
            sum(values[i * n // width: (i + 1) * n // width])
            / ((i + 1) * n // width - i * n // width)
            for i in range(width)
        ]
    low, high = min(values), max(values)
    span = high - low
    if span == 0:
        return _BLOCKS[1] * len(values)
    cells = [_BLOCKS[1 + int((v - low) / span * (len(_BLOCKS) - 2))] for v in values]
    return "".join(cells)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain monospace table with right-padded columns."""
    if not headers:
        raise MonitoringError("headers must be non-empty")
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise MonitoringError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_events(events, limit: int = 10) -> str:
    """Render the tail of a flight-recorder event stream as text."""
    if limit <= 0:
        raise MonitoringError(f"limit must be positive, got {limit}")
    tail = list(events)[-limit:]
    if not tail:
        return "(no events recorded)"
    return "\n".join(event.describe() for event in tail)


class Dashboard:
    """Consolidated live view over a metric collector.

    With a flight ``recorder`` attached, the render also includes the
    most recent bus events and the per-loop decision audit summary —
    the demo's "why did it scale?" panel.
    """

    def __init__(
        self,
        collector: MetricCollector,
        title: str = "Flower — all-in-one-place",
        recorder=None,
        telemetry=None,
    ) -> None:
        self._collector = collector
        self.title = title
        self._recorder = recorder
        self._telemetry = telemetry

    def render(self, spark_width: int = 32, history: int = 60) -> str:
        """One panel per measure: sparkline, last, mean, min, max.

        ``history`` caps how many trailing snapshots feed the sparkline.
        """
        if history < 1:
            raise MonitoringError(f"history must be positive, got {history}")
        snapshots = self._collector.snapshots
        if not snapshots:
            raise MonitoringError("no snapshots collected yet")
        rows: list[list[str]] = []
        for label in self._collector.labels:
            series = [s.values[label] for s in snapshots][-history:]
            rows.append(
                [
                    label,
                    sparkline(series, spark_width),
                    f"{series[-1]:,.1f}",
                    f"{sum(series) / len(series):,.1f}",
                    f"{min(series):,.1f}",
                    f"{max(series):,.1f}",
                ]
            )
        now = snapshots[-1].time
        header = f"{self.title}   (t={now}s, {len(snapshots)} snapshots)"
        table = render_table(["measure", "history", "last", "mean", "min", "max"], rows)
        sections = [f"{header}\n{'=' * len(header)}\n{table}"]
        if self._recorder is not None:
            sections.append(
                "recent events\n-------------\n"
                + render_events(self._recorder.bus.events, limit=10)
            )
            decision_rows = self._recorder.decisions.summary_rows()
            if decision_rows:
                sections.append(
                    "control decisions\n-----------------\n"
                    + render_table(
                        ["loop", "invocations", "acted", "clamped", "last gain"],
                        decision_rows,
                    )
                )
        if self._telemetry is not None:
            telemetry_rows = self._telemetry.rows()
            if telemetry_rows:
                sections.append(
                    "telemetry (actuations, retries, breaker state, "
                    "staleness)\n"
                    "----------------------------------------------------------\n"
                    + render_table(["metric", "value", "kind"], telemetry_rows)
                )
        return "\n\n".join(sections)
