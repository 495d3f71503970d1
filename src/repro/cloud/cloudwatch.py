"""Simulated CloudWatch: a namespaced time-series metric store.

Flower's sensor module "periodically collects live data from multiple
sources such as CloudWatch" (Sec. 3.3). In this reproduction every
simulated service pushes its per-tick measurements here, and sensors
read them back aggregated over a monitoring window — the same indirect
path a real deployment uses, so monitoring delay and aggregation
effects are part of the control loop.

Storage is columnar by emitter: each service writes its metrics as one
frame (one time column, one value row per metric), so a tick or a span
lands with one time conversion and one order check however many metrics
the service reports. Complexity contract (see DESIGN.md "Metric-store
complexity contract"): appends are O(1) amortized per frame, window
reads are O(log n + window) via bisect over the time-ordered column,
and period aggregation is a single left-to-right pass over the located
slice. Aggregation order is pinned left-to-right (append order), so it
does not move ``Average``/``Sum`` results by a ULP. Reads are memoized
per frame version: co-located alarms, sensors and collectors asking for
the same (window, statistic) within one control period aggregate once,
and reads of one frame's rows over one window locate it once.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.errors import MonitoringError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

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


class _Frame:
    """Co-emitted metric series: one time column, one value row per metric.

    An emitter (a service's per-tick or per-span emission) writes all of
    its metrics at the same timestamps, so the frame stores that column
    once: an ``int64`` time column and a ``k × capacity`` ``float64``
    block, grown together by doubling. One append converts and
    order-checks the times once for every row, and one version counter
    covers them all. A series written alone (``put_metric_data``) is a
    one-row frame, so this is the store's one storage class.

    The time-ordered invariant (non-decreasing, enforced on every
    append) is what makes O(log n) window location sound: both ends of a
    right-closed window ``(start, end]`` are found by binary search, and
    the located slice is already in append order, so aggregating it
    left-to-right matches a full-scan filter bit for bit. A window is
    located once per frame version and shared by every row's reads.
    """

    __slots__ = (
        "names", "owned", "_times", "_block", "_len", "version",
        "_memo_version", "_located", "_results",
    )

    def __init__(self, names: tuple[str, ...], owned: bool) -> None:
        self.names = names
        #: Whether an emitter owns the frame (``put_metric_frame*``);
        #: ``put_metric_data*`` may write only frames it created itself.
        self.owned = owned
        self._times = np.empty(16, dtype=np.int64)
        self._block = np.empty((len(names), 16), dtype=np.float64)
        self._len = 0
        #: Bumped on every append; read memos key on it, so a stale
        #: cached aggregate can never be served after new data lands.
        self.version = 0
        self._memo_version = 0
        self._located: dict[tuple[int, int], tuple[int, int]] = {}
        self._results: dict[tuple, object] = {}

    @property
    def times(self) -> np.ndarray:
        """View of the shared time column (do not mutate)."""
        return self._times[: self._len]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        capacity = self._times.shape[0]
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        n = self._len
        times = np.empty(capacity, dtype=np.int64)
        block = np.empty((len(self.names), capacity), dtype=np.float64)
        times[:n] = self._times[:n]
        block[:, :n] = self._block[:, :n]
        self._times = times
        self._block = block

    def append(self, t: int, values: Sequence[float]) -> None:
        """One timestamp and one value per row (a tick's emission)."""
        if len(values) != len(self.names):
            raise MonitoringError(
                f"frame {self.names} takes {len(self.names)} values per "
                f"timestamp, got {len(values)}"
            )
        n = self._len
        if n and t < self._times[n - 1]:
            raise MonitoringError(
                f"metric datapoints must be time-ordered: "
                f"got t={t} after t={int(self._times[n - 1])}"
            )
        self._reserve(1)
        try:
            self._times[n] = t
            self._block[:, n] = values
        except (ValueError, TypeError) as exc:
            raise MonitoringError(f"datapoints must be numeric: {exc}") from None
        self._len = n + 1
        self.version += 1

    def extend(self, times: ArrayLike, columns: Sequence[ArrayLike | float]) -> None:
        """Append a time-ordered batch; one conversion and check of the
        times for every row, one version bump.

        ``columns`` holds one entry per row: a column as long as
        ``times``, or a number that holds for every timestamp. The
        columns are written straight into the reserved tail and
        validated there; a rejected batch leaves ``_len`` and the
        version untouched, so the garbage past the end stays invisible
        and is overwritten by the next append.
        """
        count = len(times)
        if len(columns) != len(self.names):
            raise MonitoringError(
                f"frame {self.names} takes {len(self.names)} columns, got {len(columns)}"
            )
        for name, column in zip(self.names, columns):
            if hasattr(column, "__len__") and len(column) != count:
                raise MonitoringError(
                    f"metric {name!r}: times and values must be equal length, "
                    f"got {count} and {len(column)} datapoints"
                )
        if count == 0:
            return
        n = self._len
        end = n + count
        self._reserve(count)
        ta = self._times
        try:
            ta[n:end] = times
        except (ValueError, TypeError) as exc:
            raise MonitoringError(
                f"batch times/values must be flat numeric columns: {exc}"
            ) from None
        # One check covers the batch and its join to the frame's tail.
        seg = ta[n - 1 if n else 0 : end]
        disordered = seg[1:] < seg[:-1]
        if disordered.any():
            i = int(disordered.argmax())
            raise MonitoringError(
                f"metric datapoints must be time-ordered: "
                f"got t={int(seg[i + 1])} after t={int(seg[i])}"
            )
        block = self._block
        try:
            for row, column in enumerate(columns):
                block[row, n:end] = column
        except (ValueError, TypeError) as exc:
            raise MonitoringError(
                f"batch times/values must be flat numeric columns: {exc}"
            ) from None
        self._len = end
        self.version += 1

    def memo(self) -> dict:
        """Aggregates read since the last append (reset by any append)."""
        if self._memo_version != self.version:
            self._memo_version = self.version
            self._located = {}
            self._results = {}
        return self._results

    def locate(self, start: int, end: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of datapoints with start < t <= end."""
        self.memo()
        found = self._located.get((start, end))
        if found is None:
            lo, hi = np.searchsorted(self._times[: self._len], (start, end), side="right").tolist()
            found = self._located[(start, end)] = (lo, hi)
        return found


class _Row:
    """One metric of a frame: the read surface of a single series.

    ``SimCloudWatch._series`` maps every series key to one of these.
    ``times``, ``values``, ``version``, ``locate`` and ``window`` read
    through to the frame, so all rows of a frame share its time column,
    version and located windows. Everything :meth:`window` hands back is
    builtin ``float``, so numpy scalar types never leak into results.
    """

    __slots__ = ("frame", "row")

    def __init__(self, frame: _Frame, row: int) -> None:
        self.frame = frame
        self.row = row

    def __len__(self) -> int:
        return self.frame._len

    @property
    def times(self) -> np.ndarray:
        """View of the frame's time column (do not mutate)."""
        return self.frame.times

    @property
    def values(self) -> np.ndarray:
        """View of this metric's recorded values (do not mutate)."""
        frame = self.frame
        return frame._block[self.row, : frame._len]

    @property
    def version(self) -> int:
        return self.frame.version

    def locate(self, start: int, end: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of datapoints with start < t <= end."""
        return self.frame.locate(start, end)

    def window(self, start: int, end: int) -> list[float]:
        """Values with start < t <= end (CloudWatch-style right-closed)."""
        frame = self.frame
        lo, hi = frame.locate(start, end)
        return frame._block[self.row, lo:hi].tolist()


class SimCloudWatch:
    """Namespaced metric store with period aggregation and alarms."""

    def __init__(self) -> None:
        # Series key -> its row; the row's frame holds the data.
        self._series: dict[tuple[str, str, tuple[tuple[str, str], ...]], _Row] = {}
        # Emitter frames, keyed by (namespace, dimensions, metric names).
        # A frame is created at its emitter's first write.
        self._frames: dict[tuple, _Frame] = {}
        self._alarms: list[MetricAlarm] = []
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
        self._lone_frame(namespace, metric_name, dimensions).append(timestamp, (value,))

    def put_metric_frame(
        self,
        namespace: str,
        metric_names: tuple[str, ...],
        timestamp: int,
        values: Sequence[float],
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Record one datapoint for each of an emitter's metrics.

        ``values[i]`` belongs to ``metric_names[i]``; all of them share
        ``timestamp``. The metrics form one frame — one time column, one
        version — that only this call and :meth:`put_metric_frame_batch`
        may write.
        """
        self._frame(namespace, metric_names, dimensions).append(timestamp, values)

    def put_metric_frame_batch(
        self,
        namespace: str,
        metric_names: tuple[str, ...],
        times: ArrayLike,
        columns: Sequence[ArrayLike | float],
        dimensions: dict[str, str] | None = None,
    ) -> None:
        """Record a time-ordered batch for each of an emitter's metrics.

        The columnar write path for span execution: ``columns[i]`` is
        ``metric_names[i]``'s column, as long as ``times``, or a number
        that holds for every timestamp (a capacity constant across the
        span). The times are converted and order-checked once for the
        whole frame, and the batch lands with one version bump.
        """
        self._frame(namespace, metric_names, dimensions).extend(times, columns)

    def _lone_frame(
        self, namespace: str, metric_name: str, dimensions: dict[str, str] | None
    ) -> _Frame:
        """The one-row frame of a series written on its own."""
        key = (namespace, metric_name, _dimension_key(dimensions))
        row = self._series.get(key)
        if row is None:
            frame = _Frame((metric_name,), owned=False)
            self._series[key] = _Row(frame, 0)
            return frame
        if row.frame.owned:
            raise MonitoringError(
                f"series {namespace}/{metric_name} (dimensions={dict(key[2])}) "
                f"belongs to the frame {row.frame.names}; write it with put_metric_frame"
            )
        return row.frame

    def _frame(
        self,
        namespace: str,
        metric_names: tuple[str, ...],
        dimensions: dict[str, str] | None,
    ) -> _Frame:
        """An emitter's frame, created (and its rows registered) on first use."""
        dims = _dimension_key(dimensions)
        frame_key = (namespace, dims, metric_names)
        frame = self._frames.get(frame_key)
        if frame is not None:
            return frame
        if len(set(metric_names)) != len(metric_names):
            raise MonitoringError(f"frame {metric_names} names a metric twice")
        keys = [(namespace, name, dims) for name in metric_names]
        for key in keys:
            if key in self._series:
                raise MonitoringError(
                    f"series {namespace}/{key[1]} (dimensions={dict(dims)}) is "
                    f"already stored outside the frame {metric_names}"
                )
        frame = self._frames[frame_key] = _Frame(metric_names, owned=True)
        for row, key in enumerate(keys):
            self._series[key] = _Row(frame, row)
        return frame

    def flush_pending(self) -> None:
        """Do nothing: every write lands in its frame when it is made.

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
        row = self._row(namespace, metric_name, dimensions)
        frame = row.frame
        memo = frame.memo()
        request = (row.row, start, end, period, statistic)
        cached = memo.get(request)
        if cached is not None:
            return list(cached)
        results: list[tuple[int, float]] = []
        lo, hi = frame.locate(start, end)
        # Materialize the located slice as builtin ints/floats once:
        # aggregation then never sees numpy scalars.
        times = frame._times[lo:hi].tolist()
        values = frame._block[row.row, lo:hi].tolist()
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
        if window <= 0:
            raise MonitoringError(f"window must be positive, got {window}")
        row = self._series.get((namespace, metric_name, _dimension_key(dimensions)))
        if row is None:
            if default is None:
                self._raise_unknown(namespace, metric_name, dimensions)
            return default
        memo = row.frame.memo()
        request = (row.row, now - window, now, None, statistic)
        cached = memo.get(request)
        if cached is None:
            values = row.window(now - window, now)
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
        row = self._row(namespace, metric_name, dimensions)
        return row.times.tolist(), row.values.tolist()

    def _row(
        self, namespace: str, metric_name: str, dimensions: dict[str, str] | None
    ) -> _Row:
        row = self._series.get((namespace, metric_name, _dimension_key(dimensions)))
        if row is None:
            self._raise_unknown(namespace, metric_name, dimensions)
        return row

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
    period: the store memoizes reads per frame version, so evaluation
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
        if self.period <= 0:
            raise MonitoringError(
                f"alarm {self.name!r}: period must be positive, got {self.period}"
            )
        validate_statistic(self.statistic)

    def evaluate(self, cloudwatch: SimCloudWatch, now: int) -> str:
        """Re-evaluate state at ``now`` and fire transition callbacks."""
        window = self.period * self.evaluation_periods
        key = (self.namespace, self.metric_name, _dimension_key(self.dimensions))
        if key in cloudwatch._series:
            datapoints = cloudwatch.get_metric_statistics(
                self.namespace, self.metric_name, now - window, now,
                self.period, self.statistic, self.dimensions,
            )
        else:
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
