"""Cross-platform metric collection.

"The module calls the APIs of the systems, such as CloudWatch and
Storm, and consolidates diverse performance measures in an integrated
user interface" (Sec. 3.4). The :class:`MetricCollector` is the data
half of that: a set of labelled metric specs spanning any number of
namespaces, sampled together into :class:`FlowSnapshot` rows.

A managed flow's collector reads its store after the run: the manager
passes the run's end to :meth:`~MetricCollector.read_until`, and the
first read of the snapshots collects the grid ``window``, ``2·window``,
… up to it. Later appends all carry later times, so a finished window
``(t − window, t]`` holds exactly what it held at ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.cloudwatch import SimCloudWatch, validate_statistic
from repro.core.errors import MonitoringError
from repro.workload.traces import Trace


@dataclass(frozen=True)
class MetricSpec:
    """One consolidated measure: where it lives and how to aggregate it."""

    label: str
    namespace: str
    metric: str
    statistic: str = "Average"
    dimensions: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise MonitoringError("metric label must be non-empty")
        validate_statistic(self.statistic)


@dataclass(frozen=True)
class FlowSnapshot:
    """All configured measures sampled over one window."""

    time: int
    values: dict[str, float]

    def __getitem__(self, label: str) -> float:
        try:
            return self.values[label]
        except KeyError:
            known = ", ".join(sorted(self.values)) or "<none>"
            raise MonitoringError(f"no measure {label!r} in snapshot; have: {known}") from None


class MetricCollector:
    """Samples a set of metric specs into a growing snapshot history."""

    def __init__(self, cloudwatch: SimCloudWatch, window: int = 60) -> None:
        if window <= 0:
            raise MonitoringError(f"window must be positive, got {window}")
        self._cloudwatch = cloudwatch
        self.window = window
        self._specs: list[MetricSpec] = []
        self._snapshots: list[FlowSnapshot] = []
        # The snapshot grid: collected up to ``_collected``, due up to
        # ``_until`` (both multiples of the window).
        self._collected = 0
        self._until = 0

    def add(self, spec: MetricSpec) -> None:
        """Register a measure; duplicate labels are rejected."""
        if any(existing.label == spec.label for existing in self._specs):
            raise MonitoringError(f"duplicate metric label {spec.label!r}")
        self._specs.append(spec)

    def add_metric(
        self,
        label: str,
        namespace: str,
        metric: str,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Convenience wrapper around :meth:`add`."""
        self.add(MetricSpec(label, namespace, metric, statistic, dimensions))

    @property
    def labels(self) -> list[str]:
        return [spec.label for spec in self._specs]

    def collect(self, now: int) -> FlowSnapshot:
        """Sample every spec over the trailing window; missing data is 0.

        (A metric with no datapoints yet — e.g. before the first tick —
        reads as zero rather than failing the whole snapshot, matching
        how monitoring dashboards behave on cold start.)

        Each read is O(log n + window) against the store. Specs on one
        emitter's frame share its located window, so one ``collect``
        locates each window once per frame.
        """
        if not self._specs:
            raise MonitoringError("no metrics registered; call add() first")
        values = {
            spec.label: self._cloudwatch.get_metric_value(
                spec.namespace,
                spec.metric,
                now=now,
                window=self.window,
                statistic=spec.statistic,
                dimensions=spec.dimensions,
                default=0.0,
            )
            for spec in self._specs
        }
        snapshot = FlowSnapshot(time=now, values=values)
        self._snapshots.append(snapshot)
        return snapshot

    def read_until(self, end: int) -> None:
        """Mark the store complete up to ``end``: the next read collects
        every grid time ``k · window`` up to ``end`` not yet collected."""
        self._until = end - end % self.window

    def _collect_grid(self) -> None:
        while self._collected < self._until:
            self._collected += self.window
            self.collect(self._collected)

    @property
    def snapshots(self) -> list[FlowSnapshot]:
        self._collect_grid()
        return list(self._snapshots)

    def series(self, label: str) -> Trace:
        """The history of one measure as a trace."""
        if label not in self.labels:
            raise MonitoringError(f"unknown measure {label!r}; have: {self.labels}")
        self._collect_grid()
        trace = Trace(label)
        for snapshot in self._snapshots:
            trace.append(snapshot.time, snapshot.values[label])
        return trace
