"""Simulated CloudWatch: a namespaced time-series metric store.

Flower's sensor module "periodically collects live data from multiple
sources such as CloudWatch" (Sec. 3.3). In this reproduction every
simulated service pushes its per-tick measurements here, and sensors
read them back aggregated over a monitoring window — the same indirect
path a real deployment uses, so monitoring delay and aggregation
effects are part of the control loop.

Complexity contract (see DESIGN.md "Metric-store complexity contract"):
appends are O(1) amortized, window reads are O(log n + window) via
bisect over the strictly time-ordered series, and period aggregation is
a single left-to-right pass over the located slice. Aggregation order
is pinned left-to-right (append order), so the switch from per-period
re-scans to the single pass does not move ``Average``/``Sum`` results
by a ULP. Reads are additionally memoized per series version: co-located
alarms, sensors and collectors asking for the same (window, statistic)
within one control period aggregate once.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.errors import MonitoringError

#: Named statistics supported by :meth:`SimCloudWatch.get_metric_statistics`.
#: Percentile statistics (``p0`` .. ``p100``, e.g. ``p50``, ``p99``,
#: ``p99.9``) are also supported; use :func:`validate_statistic` to
#: check an arbitrary statistic string.
SUPPORTED_STATISTICS = ("Average", "Sum", "Maximum", "Minimum", "SampleCount")

#: Strict percentile shape: ``p`` then plain decimal digits with an
#: optional fractional part. ``float()`` is too permissive here — it
#: accepts whitespace, underscores, signs, exponents and ``nan``, so
#: ``"p 50"`` and ``"p1_0"`` would silently parse as p50/p10.
_PERCENTILE_RE = re.compile(r"p(\d{1,3})(?:\.(\d+))?\Z")


def validate_statistic(statistic: str) -> str:
    """Validate a statistic name; returns it unchanged if supported.

    Accepts the named statistics in :data:`SUPPORTED_STATISTICS` plus
    CloudWatch-style percentiles ``pXX[.X]`` with the value in [0, 100]
    (e.g. ``p99``, ``p99.9``). The percentile digits must be literal —
    no whitespace, signs, underscores or exponents. Raises
    :class:`MonitoringError` otherwise — at construction time for
    sensors and alarms, so a typo fails fast instead of on the first
    control period.
    """
    if statistic in SUPPORTED_STATISTICS:
        return statistic
    if statistic.startswith("p"):
        match = _PERCENTILE_RE.match(statistic)
        if match is not None and float(statistic[1:]) <= 100.0:
            return statistic
        raise MonitoringError(
            f"bad percentile statistic {statistic!r}: want pXX[.X] with "
            f"the value in [0, 100]"
        )
    raise MonitoringError(
        f"unsupported statistic {statistic!r}; supported: "
        f"{', '.join(SUPPORTED_STATISTICS)} or pXX percentiles"
    )


#: Memo sentinel for "the window held no datapoints" — distinct from any
#: float so a legitimate NaN aggregate is never confused with emptiness.
_EMPTY_WINDOW = object()


def _dimension_key(
    dimensions: dict[str, str] | tuple[tuple[str, str], ...] | None,
) -> tuple[tuple[str, str], ...]:
    """Canonical series key for a dimensions mapping.

    Accepts an already-canonical key tuple unchanged, so hot emitters
    (the services' per-tick and span paths) can compute their key once
    at construction instead of re-sorting the same one-entry dict on
    every datapoint.
    """
    if not dimensions:
        return ()
    if type(dimensions) is tuple:
        return dimensions
    return tuple(sorted(dimensions.items()))


def _aggregate(values: list[float], statistic: str) -> float:
    if statistic == "Average":
        return sum(values) / len(values)
    if statistic == "Sum":
        return float(sum(values))
    if statistic == "Maximum":
        return float(max(values))
    if statistic == "Minimum":
        return float(min(values))
    if statistic == "SampleCount":
        return float(len(values))
    if statistic.startswith("p"):
        return _percentile(values, float(statistic[1:]))
    raise MonitoringError(f"unsupported statistic {statistic!r}")


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise MonitoringError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    # One-product form: monotone in floating point (never escapes the
    # bracketing values).
    return ordered[low] + weight * (ordered[high] - ordered[low])


class _Series:
    """A single metric stream: time-ordered (t, value) pairs, columnar.

    Storage is a pair of growable numpy arrays (``int64`` times,
    ``float64`` values) so whole spans of datapoints land in one
    :meth:`extend` — the columnar write path the span scheduler uses —
    while :meth:`append` keeps the scalar per-tick path. The
    time-ordered invariant (enforced on both paths) is what makes
    O(log n) window location sound: both ends of a right-closed window
    ``(start, end]`` are found by binary search, and the located slice
    is already in append order, so aggregating it left-to-right matches
    the old full-scan filter bit for bit. Everything handed back out
    (windows, raw series, aggregation inputs) is converted to builtin
    ``int``/``float`` so numpy scalar types never leak into results.
    """

    __slots__ = ("_times", "_values", "_len", "version")

    def __init__(self) -> None:
        self._times = np.empty(16, dtype=np.int64)
        self._values = np.empty(16, dtype=np.float64)
        self._len = 0
        #: Bumped on every append/extend; read memos key on it, so a
        #: stale cached aggregate can never be served after new data
        #: lands.
        self.version = 0

    def __len__(self) -> int:
        return self._len

    @property
    def times(self) -> np.ndarray:
        """View of the recorded timestamps (do not mutate)."""
        return self._times[: self._len]

    @property
    def values(self) -> np.ndarray:
        """View of the recorded values (do not mutate)."""
        return self._values[: self._len]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        capacity = self._times.shape[0]
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        times = np.empty(capacity, dtype=np.int64)
        values = np.empty(capacity, dtype=np.float64)
        times[: self._len] = self._times[: self._len]
        values[: self._len] = self._values[: self._len]
        self._times = times
        self._values = values

    def append(self, t: int, value: float) -> None:
        n = self._len
        if n and t < self._times[n - 1]:
            raise MonitoringError(
                f"metric datapoints must be time-ordered: "
                f"got t={t} after t={int(self._times[n - 1])}"
            )
        self._reserve(1)
        self._times[n] = t
        self._values[n] = value
        self._len = n + 1
        self.version += 1

    def extend(self, times: Sequence[int], values: Sequence[float]) -> None:
        """Append a whole time-ordered batch; one version bump.

        The columns are written straight into the reserved tail (one C
        conversion, no intermediate arrays) and validated in place; a
        rejected batch leaves ``_len`` untouched, so the garbage past
        the end is invisible and overwritten by the next append.
        """
        count = len(times)
        if count != len(values):
            raise MonitoringError(
                f"batch times/values must be equal length, "
                f"got {count} and {len(values)} datapoints"
            )
        if count == 0:
            return
        n = self._len
        self._reserve(count)
        ta = self._times
        try:
            ta[n : n + count] = times
            self._values[n : n + count] = values
        except (ValueError, TypeError) as exc:
            raise MonitoringError(
                f"batch times/values must be flat numeric columns: {exc}"
            ) from None
        seg = ta[n : n + count]
        if count > 1:
            disordered = seg[1:] < seg[:-1]
            if disordered.any():
                i = int(np.nonzero(disordered)[0][0])
                raise MonitoringError(
                    f"metric datapoints must be time-ordered: "
                    f"got t={int(seg[i + 1])} after t={int(seg[i])}"
                )
        if n and seg[0] < ta[n - 1]:
            raise MonitoringError(
                f"metric datapoints must be time-ordered: "
                f"got t={int(seg[0])} after t={int(ta[n - 1])}"
            )
        self._len = n + count
        self.version += 1

    def locate(self, start: int, end: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of datapoints with start < t <= end."""
        t = self._times[: self._len]
        return (
            int(np.searchsorted(t, start, side="right")),
            int(np.searchsorted(t, end, side="right")),
        )

    def window(self, start: int, end: int) -> list[float]:
        """Values with start < t <= end (CloudWatch-style right-closed)."""
        lo, hi = self.locate(start, end)
        return self._values[lo:hi].tolist()


class SimCloudWatch:
    """Namespaced metric store with period aggregation and alarms."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, tuple[tuple[str, str], ...]], _Series] = defaultdict(
            _Series
        )
        self._alarms: list[MetricAlarm] = []
        # Per-series read memo: series key -> [version, {request: result}].
        # Entries are discarded wholesale when the series version moves,
        # so the memo holds at most one control period's worth of
        # distinct read shapes per series.
        self._read_memo: dict[tuple, list] = {}
        # Monitoring-layer fault injection (chaos harness). A metric
        # delay makes sensors query a window ending ``delay`` seconds in
        # the past; a dropout makes sensor reads return no data at all.
        # Both affect only sensor *reads* — datapoints keep landing, so
        # recovery is instant when the fault clears.
        self.sensor_delay_seconds = 0
        self.sensor_dropout = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put_metric_data(
        self,
        namespace: str,
        metric_name: str,
        value: float,
        timestamp: int,
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Record one datapoint. Timestamps must be non-decreasing per series."""
        key = (namespace, metric_name, _dimension_key(dimensions))
        self._series[key].append(timestamp, value)

    def put_metric_data_batch(
        self,
        namespace: str,
        metric_name: str,
        times: Sequence[int],
        values: Sequence[float],
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Record a whole time-ordered batch of datapoints in one call.

        This is the columnar write path for span execution: a span's
        worth of per-tick measurements lands as one array append, with
        one series-version bump, instead of one ``put_metric_data`` per
        tick. Batch order is append order — identical to issuing the
        scalar puts one at a time — so reads and memo semantics are
        unchanged.
        """
        key = (namespace, metric_name, _dimension_key(dimensions))
        self._series[key].extend(times, values)

    def flush_pending(self) -> None:
        """Do nothing: every write lands in its series when it is made.

        Callers that read raw ``_series`` may call this first; the
        benchmark's oracle and tracer do.
        """

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def list_metrics(self, namespace: str | None = None) -> list[tuple[str, str]]:
        """Return (namespace, metric_name) pairs, optionally filtered."""
        seen: dict[tuple[str, str], None] = {}
        for ns, name, _dims in self._series:
            if namespace is not None and ns != namespace:
                continue
            seen[(ns, name)] = None
        return list(seen)

    def get_metric_statistics(
        self,
        namespace: str,
        metric_name: str,
        start: int,
        end: int,
        period: int,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
    ) -> list[tuple[int, float]]:
        """Aggregate a metric into fixed periods.

        Returns ``(period_end, value)`` pairs for every period in
        ``(start, end]`` that contains at least one datapoint. Periods
        are right-aligned on ``end``: the latest period covers
        ``(end - period, end]``.

        Cost is one O(log n) window location plus a single left-to-right
        pass over the located slice, regardless of how many periods the
        range spans.
        """
        if period <= 0:
            raise MonitoringError(f"period must be positive, got {period}")
        if end <= start:
            raise MonitoringError(f"end ({end}) must be after start ({start})")
        validate_statistic(statistic)
        key = (namespace, metric_name, _dimension_key(dimensions))
        series = self._get_series_by_key(key, namespace, metric_name, dimensions)
        memo = self._memo_for(key, series)
        request = (start, end, period, statistic)
        cached = memo.get(request)
        if cached is not None:
            return list(cached)
        results: list[tuple[int, float]] = []
        lo, hi = series.locate(start, end)
        # Materialize the located slice as builtin ints/floats once:
        # aggregation then never sees numpy scalars.
        times = series.times[lo:hi].tolist()
        values = series.values[lo:hi].tolist()
        i, n = 0, hi - lo
        while i < n:
            # Right-aligned period containing times[i]: boundaries sit
            # at end - k*period, and the bucket is right-closed.
            period_end = end - (end - times[i]) // period * period
            j = bisect_right(times, period_end, i, n)
            results.append((period_end, _aggregate(values[i:j], statistic)))
            i = j
        memo[request] = results
        return list(results)

    def get_metric_value(
        self,
        namespace: str,
        metric_name: str,
        now: int,
        window: int,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
        default: float | None = None,
    ) -> float:
        """Single aggregated value over the trailing ``window`` seconds.

        This is what Flower's sensor module calls: one statistic over
        the monitoring window ending at ``now``. Raises if the window is
        empty and no ``default`` is given.
        """
        validate_statistic(statistic)
        key = (namespace, metric_name, _dimension_key(dimensions))
        if key not in self._series:
            if default is None:
                self._raise_unknown(namespace, metric_name, dimensions)
            return default
        series = self._series[key]
        memo = self._memo_for(key, series)
        request = (now - window, now, None, statistic)
        cached = memo.get(request)
        if cached is None:
            values = series.window(now - window, now)
            cached = _aggregate(values, statistic) if values else _EMPTY_WINDOW
            memo[request] = cached
        if cached is _EMPTY_WINDOW:
            if default is None:
                raise MonitoringError(
                    f"no datapoints for {namespace}/{metric_name} in ({now - window}, {now}]"
                )
            return default
        return cached

    def get_series(
        self,
        namespace: str,
        metric_name: str,
        dimensions: dict[str, str] | None = None,
    ) -> tuple[list[int], list[float]]:
        """Raw (times, values) of a metric series (copies)."""
        series = self._get_series(namespace, metric_name, dimensions)
        return series.times.tolist(), series.values.tolist()

    def _memo_for(self, key: tuple, series: _Series) -> dict:
        """The read memo for ``key``, reset whenever the series grows."""
        entry = self._read_memo.get(key)
        if entry is None or entry[0] != series.version:
            entry = [series.version, {}]
            self._read_memo[key] = entry
        return entry[1]

    def _get_series(
        self,
        namespace: str,
        metric_name: str,
        dimensions: dict[str, str] | None,
        allow_missing: bool = False,
    ) -> _Series | None:
        key = (namespace, metric_name, _dimension_key(dimensions))
        if key not in self._series:
            if allow_missing:
                return None
            self._raise_unknown(namespace, metric_name, dimensions)
        return self._series[key]

    def _get_series_by_key(
        self,
        key: tuple,
        namespace: str,
        metric_name: str,
        dimensions: dict[str, str] | None,
    ) -> _Series:
        if key not in self._series:
            self._raise_unknown(namespace, metric_name, dimensions)
        return self._series[key]

    def _raise_unknown(
        self, namespace: str, metric_name: str, dimensions: dict[str, str] | None
    ) -> None:
        known = ", ".join(f"{ns}/{name}" for ns, name in self.list_metrics()) or "<none>"
        raise MonitoringError(
            f"unknown metric {namespace}/{metric_name} "
            f"(dimensions={dict(_dimension_key(dimensions))}); known metrics: {known}"
        )

    # ------------------------------------------------------------------
    # Alarms
    # ------------------------------------------------------------------
    def put_alarm(self, alarm: "MetricAlarm") -> None:
        """Register an alarm; it is evaluated by :meth:`evaluate_alarms`."""
        self._alarms.append(alarm)

    @property
    def alarms(self) -> list["MetricAlarm"]:
        return list(self._alarms)

    def evaluate_alarms(self, now: int) -> list["MetricAlarm"]:
        """Evaluate all alarms at ``now``; return those in ALARM state."""
        return [alarm for alarm in self._alarms if alarm.evaluate(self, now) == "ALARM"]


_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


@dataclass
class MetricAlarm:
    """Threshold alarm over an aggregated metric, CloudWatch-style.

    The alarm goes to ALARM only when the statistic breaches the
    threshold for ``evaluation_periods`` consecutive periods, which is
    exactly the "rule-based techniques that quickly trigger in response
    to predefined threshold violations" the paper contrasts Flower with.

    Co-located alarms — several alarms (or an alarm plus a sensor) over
    the same series, window and statistic — aggregate once per control
    period: the store memoizes reads per series version, so evaluation
    cost does not multiply with the number of watchers.
    """

    name: str
    namespace: str
    metric_name: str
    threshold: float
    comparison: str = ">"
    statistic: str = "Average"
    period: int = 60
    evaluation_periods: int = 1
    dimensions: dict[str, str] | None = None
    on_alarm: Callable[[int], None] | None = None
    on_ok: Callable[[int], None] | None = None
    state: str = field(default="INSUFFICIENT_DATA", init=False)

    def __post_init__(self) -> None:
        if self.comparison not in _COMPARATORS:
            raise MonitoringError(
                f"alarm {self.name!r}: comparison must be one of {sorted(_COMPARATORS)}"
            )
        if self.evaluation_periods <= 0:
            raise MonitoringError(f"alarm {self.name!r}: evaluation_periods must be positive")
        validate_statistic(self.statistic)

    def evaluate(self, cloudwatch: SimCloudWatch, now: int) -> str:
        """Re-evaluate state at ``now`` and fire transition callbacks."""
        window = self.period * self.evaluation_periods
        try:
            datapoints = cloudwatch.get_metric_statistics(
                self.namespace, self.metric_name, now - window, now,
                self.period, self.statistic, self.dimensions,
            )
        except MonitoringError:
            # The metric has never been written: insufficient data, not
            # an error — services may emit their first datapoint after
            # the alarm is created, as in real CloudWatch.
            datapoints = []
        previous = self.state
        if len(datapoints) < self.evaluation_periods:
            self.state = "INSUFFICIENT_DATA"
        else:
            compare = _COMPARATORS[self.comparison]
            breached = all(compare(value, self.threshold) for _t, value in datapoints)
            self.state = "ALARM" if breached else "OK"
        if self.state != previous:
            if self.state == "ALARM" and self.on_alarm is not None:
                self.on_alarm(now)
            elif self.state == "OK" and self.on_ok is not None:
                self.on_ok(now)
        return self.state
