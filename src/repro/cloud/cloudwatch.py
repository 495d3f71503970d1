"""Simulated CloudWatch: a namespaced time-series metric store.

Flower's sensor module "periodically collects live data from multiple
sources such as CloudWatch" (Sec. 3.3). In this reproduction every
simulated service pushes its per-tick measurements here, and sensors
read them back aggregated over a monitoring window — the same indirect
path a real deployment uses, so monitoring delay and aggregation
effects are part of the control loop.

Storage is columnar by emitter: each service writes its metrics as one
frame (shared times, one value row per metric), so a tick or a span
lands with one time check however many metrics the service reports.
Times are kept as arithmetic runs (a span's ticks are one), and a
capacity constant across spans as steps, one value per change. A run
reserves its tick count first (:meth:`SimCloudWatch.reserve`), so a
fresh run's dense rows are allocated once at their final size.
Complexity contract (see DESIGN.md "Metric-store complexity
contract"): appends are O(1) amortized per frame, window reads are
O(log runs + window) via a bisect over the time runs, and period
aggregation is a single left-to-right pass over the located slice.
Aggregation order is pinned left-to-right (append order, an explicit
fold rather than ``sum()``), so it does not move ``Average``/``Sum``
results by a ULP. Reads are memoized per frame version: co-located
alarms, sensors and collectors asking for the same (window, statistic)
within one control period aggregate once, and reads of one frame's rows
over one window locate it once.
"""

from __future__ import annotations

import math
import re
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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

#: Columns a frame starts with when no run has reserved any: every lone
#: series, and emitter frames before the first :meth:`SimCloudWatch.reserve`.
_START_COLUMNS = 16


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
        return left_fold(values) / len(values)
    if statistic == "Sum":
        return left_fold(values)
    if statistic == "Maximum":
        return float(max(values))
    if statistic == "Minimum":
        return float(min(values))
    if statistic == "SampleCount":
        return float(len(values))
    if statistic.startswith("p"):
        return _percentile(values, float(statistic[1:]))
    raise MonitoringError(f"unsupported statistic {statistic!r}")


def left_fold(values: Iterable[float]) -> float:
    """Left-to-right float sum, as ``sum()`` adds before Python 3.12
    (which compensates it): the pinned order of every float sum on the
    run path (aggregates, coordinator weights, costs)."""
    total = 0.0
    for value in values:
        total += value
    return total


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


#: Native float64 bytes of a float: two values are the same step only
#: when these match.
_PACK = struct.Struct("d").pack

#: Timestamp types a write accepts (besides a ``range`` of them).
_INTEGERS = (int, np.integer)

#: Value types a write accepts as a number, and the dtype kinds it
#: accepts as a column; NaN and ±inf are numbers.
_NUMBERS = (int, float, np.integer, np.floating, np.bool_)
_NUMERIC_KINDS = "biuf"


def _integer_times(times: ArrayLike) -> list[int]:
    """Batch ``times`` as builtin ints; a value that is not an integer
    raises :class:`MonitoringError` naming it."""
    for t in times:
        if not isinstance(t, _INTEGERS):
            if hasattr(t, "__len__") and not isinstance(t, str):
                raise MonitoringError(
                    f"batch times/values must be flat numeric columns: timestamp {t!r}"
                )
            _reject_time(t)
    return [int(t) for t in times]


def _reject_time(t: object) -> None:
    shown = t.item() if isinstance(t, np.generic) else t
    raise MonitoringError(f"timestamps must be integers, got {shown!r}")


def _disorder(t: int, after: int) -> None:
    raise MonitoringError(f"metric datapoints must be time-ordered: got t={t} after t={after}")


def _column(name: str, column: ArrayLike | float, count: int) -> np.ndarray | float:
    """A batch column as a number or a numeric array of ``count`` values
    (an array checked by its dtype, a list converted once); a column of
    another length, or anything else (None, a string, an object column)
    raises :class:`MonitoringError` naming the metric and the value."""
    if hasattr(column, "__len__") and not isinstance(column, str):
        if len(column) != count:
            raise MonitoringError(
                f"metric {name!r}: times and values must be equal length, "
                f"got {count} and {len(column)} datapoints"
            )
        array = np.asarray(column)
        if array.dtype.kind in _NUMERIC_KINDS:
            return array
        column = next((v for v in column if not isinstance(v, _NUMBERS)), column)
    elif isinstance(column, _NUMBERS):
        return column
    _reject_value(name, column)


def _reject_value(name: str, value: object) -> None:
    raise MonitoringError(f"metric {name!r}: datapoints must be numeric, got {value!r}")


class _Steps:
    """A row kept as steps: ``(index, value)`` pairs, one pair wherever
    the value's float64 bits change (so ``-0.0`` after ``0.0`` and every
    NaN payload count as changes). ``at[0]`` is 0 once the row holds
    data, since every frame write writes every row.
    """

    __slots__ = ("at", "values")

    def __init__(self) -> None:
        self.at: list[int] = []
        self.values: list[float] = []

    def changes(self, n: int, column: ArrayLike | float, count: int) -> list[tuple[int, float]]:
        """The pairs a write of ``count`` values from index ``n`` adds
        (a checked number or numeric array); raises ``ValueError`` on a
        column that is not flat, before anything is stored."""
        values = self.values
        if not hasattr(column, "__len__"):
            # Converted as a dense row's block would convert it.
            value = float(np.float64(column))
            if values and _PACK(value) == _PACK(values[-1]):
                return []
            return [(n, value)]
        col = np.asarray(column, dtype=np.float64)
        if col.shape != (count,):
            raise ValueError(f"a column of shape {col.shape} for {count} timestamps")
        bits = col.view(np.int64)
        new = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
        if not values or col[:1].tobytes() != _PACK(values[-1]):
            new.insert(0, 0)
        floats = col.tolist()
        return [(n + i, floats[i]) for i in new]

    def take(self, changes: list[tuple[int, float]]) -> None:
        for i, value in changes:
            self.at.append(i)
            self.values.append(value)

    def array(self, lo: int, hi: int) -> np.ndarray:
        """Values at indices ``[lo, hi)``, as a new ``float64`` array."""
        if lo >= hi:
            return np.empty(0, dtype=np.float64)
        at = self.at
        first = bisect_right(at, lo) - 1
        stop = bisect_left(at, hi)
        bounds = [lo, *at[first + 1 : stop], hi]
        return np.repeat(np.asarray(self.values[first:stop], dtype=np.float64), np.diff(bounds))


class _Frame:
    """Co-emitted metric series: shared times, one row per metric.

    An emitter (a service's per-tick or per-span emission) writes all of
    its metrics at the same timestamps, so the frame stores them once,
    as arithmetic runs: run ``r`` starts at index ``_run_at[r]`` with
    time ``_run_t0[r]`` and steps by ``_run_step[r]`` up to the next
    run's start (a run of one has step 0 until a second time joins it).
    A span's ticks are one progression, so a ``range`` joins the last
    run in O(1); any other times are split into the fewest runs, and a
    run of ticks stays one run however it was written. Rows are dense or
    steps. A dense row is a row of the ``float64`` block, which starts
    at ``capacity`` columns and grows by doubling past it. A row that
    arrived as a plain number in the batch that created the frame (a
    capacity constant across a span) is a :class:`_Steps`. One append
    checks the times once for every row, and one version counter covers
    them all. A series written alone (``put_metric_data``) is a one-row
    frame, so this is the store's one storage class.

    The time-ordered invariant (non-decreasing, enforced on every
    append) is what makes window location O(log runs): each end of a
    right-closed window ``(start, end]`` is a bisect over the runs'
    first times plus one floor division, and the located slice is
    already in append order, so aggregating it left-to-right matches a
    full-scan filter bit for bit. A window is located once per frame
    version and shared by every row's reads.
    """

    __slots__ = (
        "names", "owned", "_cells", "_block", "_run_at", "_run_t0", "_run_step", "_len",
        "version", "_memo_version", "_located", "_results",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        owned: bool,
        capacity: int = _START_COLUMNS,
        steps: Sequence[int] = (),
    ) -> None:
        self.names = names
        #: Whether an emitter owns the frame (``put_metric_frame*``);
        #: ``put_metric_data*`` may write only frames it created itself.
        self.owned = owned
        #: Per metric: its block row (an int) or its :class:`_Steps`.
        cells: list[int | _Steps] = []
        dense = 0
        for i in range(len(names)):
            if i in steps:
                cells.append(_Steps())
            else:
                cells.append(dense)
                dense += 1
        self._cells = tuple(cells)
        self._block = np.empty((dense, capacity), dtype=np.float64)
        self._run_at: list[int] = []
        self._run_t0: list[int] = []
        self._run_step: list[int] = []
        self._len = 0
        #: Bumped on every append; read memos key on it, so a stale
        #: cached aggregate can never be served after new data lands.
        self.version = 0
        self._memo_version = 0
        self._located: dict[tuple[int, int], tuple[int, int]] = {}
        self._results: dict[tuple, object] = {}

    @property
    def times(self) -> np.ndarray:
        """The timestamps as a new ``int64`` array."""
        return self.time_array(0, self._len)

    def time_array(self, lo: int, hi: int) -> np.ndarray:
        """Timestamps at indices ``[lo, hi)``, as a new ``int64`` array
        (8 B a time, where a list of builtin ints costs about 40)."""
        run_at = self._run_at
        out = np.empty(hi - lo, dtype=np.int64)
        r = bisect_right(run_at, lo) - 1
        i = lo
        while i < hi:
            at = run_at[r]
            end = run_at[r + 1] if r + 1 < len(run_at) and run_at[r + 1] < hi else hi
            # One expression, so numpy reuses the arange's buffer for
            # the product and the sum instead of holding two more.
            out[i - lo : end - lo] = (
                np.arange(i - at, end - at, dtype=np.int64) * self._run_step[r] + self._run_t0[r]
            )
            i = end
            r += 1
        return out

    def _last_time(self) -> int:
        return self._run_t0[-1] + (self._len - 1 - self._run_at[-1]) * self._run_step[-1]

    def _runs(self, times: ArrayLike) -> Sequence[tuple[int, int, int]]:
        """A batch's times as ``(first time, step, count)`` runs, checked
        (integers, non-decreasing, none before the frame's tail) before
        anything is stored: a ``range`` is one run, any other time a run
        of its own for :meth:`_add_runs` to join."""
        ts = times if type(times) is range else _integer_times(times)
        if self._len and ts[0] < self._last_time():
            _disorder(ts[0], self._last_time())
        if type(ts) is range:
            if len(ts) > 1 and ts.step < 0:
                _disorder(ts[1], ts[0])
            return ((ts.start, ts.step, len(ts)),)
        for i in range(1, len(ts)):
            if ts[i] < ts[i - 1]:
                _disorder(ts[i], ts[i - 1])
        return [(t, 0, 1) for t in ts]

    def _add_runs(self, runs: Sequence[tuple[int, int, int]]) -> None:
        """Append checked runs after the tail, each joining the last run
        where it continues it. Joined greedily, one time at a time, a
        list of times splits into the fewest runs."""
        run_at, run_t0, run_step = self._run_at, self._run_t0, self._run_step
        n = self._len
        for t0, step, count in runs:
            if run_at:
                length = n - run_at[-1]
                if length == 1:
                    if count == 1 or t0 - run_t0[-1] == step:
                        run_step[-1] = t0 - run_t0[-1]
                        n += count
                        continue
                elif t0 == run_t0[-1] + length * run_step[-1] and (
                    count == 1 or step == run_step[-1]
                ):
                    n += count
                    continue
            run_at.append(n)
            run_t0.append(t0)
            run_step.append(step if count > 1 else 0)
            n += count

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        capacity = self._block.shape[1]
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        block = np.empty((self._block.shape[0], capacity), dtype=np.float64)
        block[:, : self._len] = self._block[:, : self._len]
        self._block = block

    def append(self, t: int, values: Sequence[float]) -> None:
        """One timestamp and one value per row (a tick's emission)."""
        if len(values) != len(self.names):
            raise MonitoringError(
                f"frame {self.names} takes {len(self.names)} values per "
                f"timestamp, got {len(values)}"
            )
        if not isinstance(t, _INTEGERS):
            _reject_time(t)
        t = int(t)
        n = self._len
        if n and t < self._last_time():
            _disorder(t, self._last_time())
        self._reserve(1)
        block = self._block
        steps = []
        for name, cell, value in zip(self.names, self._cells, values):
            if not isinstance(value, _NUMBERS):
                _reject_value(name, value)
            if cell.__class__ is int:
                block[cell, n] = value
            else:
                steps.append((cell, cell.changes(n, value, 1)))
        self._commit(steps, ((t, 0, 1),), n + 1)

    def extend(self, times: ArrayLike, columns: Sequence[ArrayLike | float]) -> None:
        """Append a time-ordered batch; one check of the times for every
        row, one version bump.

        ``columns`` holds one entry per row: a column as long as
        ``times``, or a number that holds for every timestamp. Dense
        columns are written straight into the reserved tail and
        validated there; a rejected batch leaves ``_len``, the runs,
        the steps and the version untouched, so the garbage past the end
        stays invisible and is overwritten by the next append.
        """
        count = len(times)
        if len(columns) != len(self.names):
            raise MonitoringError(
                f"frame {self.names} takes {len(self.names)} columns, got {len(columns)}"
            )
        if count == 0:
            for name, column in zip(self.names, columns):
                _column(name, column, 0)
            return
        runs = self._runs(times)
        n = self._len
        end = n + count
        self._reserve(count)
        block = self._block
        ndarray = np.ndarray
        steps = []
        try:
            for name, cell, column in zip(self.names, self._cells, columns):
                kind = column.__class__
                # Plain numbers and numeric arrays of the batch's length
                # (the span path's columns) pass as they are; _column
                # checks the rest.
                if not (kind is int or kind is float or kind is ndarray
                        and len(column) == count and column.dtype.kind in _NUMERIC_KINDS):
                    column = _column(name, column, count)
                if cell.__class__ is int:
                    block[cell, n:end] = column
                else:
                    steps.append((cell, cell.changes(n, column, count)))
        except (ValueError, TypeError) as exc:
            raise MonitoringError(
                f"batch times/values must be flat numeric columns: {exc}"
            ) from None
        self._commit(steps, runs, end)

    def _commit(self, steps: list, runs: Sequence[tuple[int, int, int]], end: int) -> None:
        """Store a checked write: its step changes, its runs, its length."""
        for cell, changes in steps:
            if changes:
                cell.take(changes)
        self._add_runs(runs)
        self._len = end
        self.version += 1

    def memo(self) -> dict:
        """Aggregates read since the last append (reset by any append)."""
        if self._memo_version != self.version:
            self._memo_version = self.version
            self._located = {}
            self._results = {}
        return self._results

    def _count_to(self, t: int) -> int:
        """How many datapoints have a time at or before ``t``."""
        r = bisect_right(self._run_t0, t) - 1
        if r < 0:
            return 0
        at = self._run_at[r]
        end = self._run_at[r + 1] if r + 1 < len(self._run_at) else self._len
        step = self._run_step[r]
        if step:
            k = int((t - self._run_t0[r]) // step) + 1
            if at + k < end:
                return at + k
        return end

    def locate(self, start: int, end: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of datapoints with start < t <= end."""
        self.memo()
        found = self._located.get((start, end))
        if found is None:
            found = self._located[(start, end)] = (self._count_to(start), self._count_to(end))
        return found


class _Row:
    """One metric of a frame: the read surface of a single series.

    ``SimCloudWatch._series`` maps every series key to one of these.
    ``times``, ``version`` and ``locate`` read through to the frame, so
    all rows of a frame share its time runs, version and located
    windows; ``values`` and :meth:`window` read the row's block row or
    its steps. ``times`` and ``values`` are new arrays, never views of
    the storage, and everything :meth:`window` hands back is builtin
    ``float``, so numpy scalar types never leak into results.
    """

    __slots__ = ("frame", "row")

    def __init__(self, frame: _Frame, row: int) -> None:
        self.frame = frame
        self.row = row

    def __len__(self) -> int:
        return self.frame._len

    @property
    def times(self) -> np.ndarray:
        """The frame's timestamps as a new ``int64`` array."""
        return self.frame.times

    @property
    def values(self) -> np.ndarray:
        """This metric's recorded values as a new ``float64`` array."""
        frame = self.frame
        cell = frame._cells[self.row]
        if cell.__class__ is int:
            return frame._block[cell, : frame._len].copy()
        return cell.array(0, frame._len)

    @property
    def version(self) -> int:
        return self.frame.version

    def locate(self, start: int, end: int) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of datapoints with start < t <= end."""
        return self.frame.locate(start, end)

    def slice(self, lo: int, hi: int) -> list[float]:
        """Values at indices ``[lo, hi)``, as builtin floats."""
        frame = self.frame
        cell = frame._cells[self.row]
        if cell.__class__ is int:
            return frame._block[cell, lo:hi].tolist()
        return cell.array(lo, hi).tolist()

    def window(self, start: int, end: int) -> list[float]:
        """Values with start < t <= end (CloudWatch-style right-closed)."""
        return self.slice(*self.frame.locate(start, end))


class SimCloudWatch:
    """Namespaced metric store with period aggregation and alarms."""

    def __init__(self) -> None:
        # Series key -> its row; the row's frame holds the data.
        self._series: dict[tuple[str, str, tuple[tuple[str, str], ...]], _Row] = {}
        # Emitter frames, keyed by (namespace, dimensions, metric names).
        # A frame is created at its emitter's first write, with the
        # columns the latest reserve() asked for.
        self._frames: dict[tuple, _Frame] = {}
        self._frame_columns = _START_COLUMNS
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
        """Record one datapoint. Timestamps are integers, non-decreasing per series."""
        dims = _dimension_key(dimensions)
        frame, new = self._lone_frame(namespace, metric_name, dims)
        frame.append(timestamp, (value,))
        if new:
            self._register(namespace, dims, frame)

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
        ``timestamp``, an integer. The metrics form one frame — shared
        times, one version — that only this call and
        :meth:`put_metric_frame_batch` may write. A frame this call
        creates keeps every row dense.
        """
        dims = _dimension_key(dimensions)
        frame, new = self._frame(namespace, metric_names, dims)
        frame.append(timestamp, values)
        if new:
            self._register(namespace, dims, frame)

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
        span). ``times`` are integers; a ``range`` joins the frame's
        last time run in O(1). They are order-checked once for the whole
        frame, and the batch lands with one version bump. A row given a
        number in the batch that creates the frame is kept as steps,
        one value per change, instead of one per timestamp.
        """
        dims = _dimension_key(dimensions)
        frame, new = self._frame(namespace, metric_names, dims, columns)
        frame.extend(times, columns)
        if new:
            self._register(namespace, dims, frame)

    def _lone_frame(
        self, namespace: str, metric_name: str, dims: tuple
    ) -> tuple[_Frame, bool]:
        """The one-row frame of a series written on its own, and whether
        it is new (built, not yet registered)."""
        row = self._series.get((namespace, metric_name, dims))
        if row is None:
            return _Frame((metric_name,), owned=False), True
        if row.frame.owned:
            raise MonitoringError(
                f"series {namespace}/{metric_name} (dimensions={dict(dims)}) "
                f"belongs to the frame {row.frame.names}; write it with put_metric_frame"
            )
        return row.frame, False

    def _frame(
        self,
        namespace: str,
        metric_names: tuple[str, ...],
        dims: tuple,
        columns: Sequence[ArrayLike | float] = (),
    ) -> tuple[_Frame, bool]:
        """An emitter's frame, and whether it is new (built on first use,
        not yet registered); the rows ``columns`` gives as plain numbers
        are steps."""
        frame = self._frames.get((namespace, dims, metric_names))
        if frame is not None:
            return frame, False
        if len(set(metric_names)) != len(metric_names):
            raise MonitoringError(f"frame {metric_names} names a metric twice")
        for name in metric_names:
            if (namespace, name, dims) in self._series:
                raise MonitoringError(
                    f"series {namespace}/{name} (dimensions={dict(dims)}) is "
                    f"already stored outside the frame {metric_names}"
                )
        steps = [i for i, column in enumerate(columns) if not hasattr(column, "__len__")]
        return _Frame(metric_names, owned=True, capacity=self._frame_columns, steps=steps), True

    def _register(self, namespace: str, dims: tuple, frame: _Frame) -> None:
        """Store a new frame and its rows, once its creating write has
        passed its checks: a rejected first write leaves no trace, and
        the next write picks the frame's step rows afresh."""
        if frame.owned:
            self._frames[(namespace, dims, frame.names)] = frame
        for row, name in enumerate(frame.names):
            self._series[(namespace, name, dims)] = _Row(frame, row)

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` more datapoints in every emitter frame.

        A run calls this with its tick count before it starts, since
        each emitter writes one datapoint a tick. The room is the dense
        rows' block: time runs and step rows grow by one entry per run
        or change, not per datapoint. Emitter frames created after the
        call start at exactly ``rows`` columns (16 when ``rows`` is 0),
        so a fresh run's blocks are never regrown, copied or left with
        slack. Existing frames grow by the doubling rule, so repeated
        short runs stay amortized, and doubling also covers any write
        past the reservation. Lone series (``put_metric_data``) keep
        their 16-column start.
        """
        if rows < 0:
            raise MonitoringError(f"rows must be non-negative, got {rows}")
        for frame in self._frames.values():
            frame._reserve(rows)
        self._frame_columns = rows or _START_COLUMNS

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

        Cost is O(log runs + window): one window location (a bisect over
        the time runs) plus a single left-to-right pass over the located
        slice, regardless of how many periods the range spans.
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
        times = frame.time_array(lo, hi).tolist()
        values = row.slice(lo, hi)
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
