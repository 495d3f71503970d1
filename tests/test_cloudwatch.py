"""Unit tests for the simulated CloudWatch metric store and alarms."""

import builtins
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import SUPPORTED_STATISTICS, MetricAlarm, SimCloudWatch, validate_statistic
from repro.cloud import cloudwatch as cloudwatch_module
from repro.cloud.cloudwatch import _aggregate
from repro.core.builder import FlowBuilder
from repro.core.errors import ConfigurationError, MonitoringError, SimulationError
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.core.manager import _FlowPipeline
from repro.workload.generators import ConstantRate, SinusoidalRate


@pytest.fixture
def cw():
    return SimCloudWatch()


def _fill(cw, values, namespace="NS", metric="M", start=1, step=1, dims=None):
    for i, v in enumerate(values):
        cw.put_metric_data(namespace, metric, v, start + i * step, dims)


class TestPutAndGet:
    def test_raw_series_roundtrip(self, cw):
        _fill(cw, [1.0, 2.0, 3.0])
        times, values = cw.get_series("NS", "M")
        assert times == [1, 2, 3]
        assert values == [1.0, 2.0, 3.0]

    def test_rejects_time_regression(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 10)
        with pytest.raises(MonitoringError):
            cw.put_metric_data("NS", "M", 2.0, 5)

    def test_same_timestamp_allowed(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 10)
        cw.put_metric_data("NS", "M", 2.0, 10)
        assert cw.get_series("NS", "M")[1] == [1.0, 2.0]

    def test_dimensions_separate_series(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 1, {"Stream": "a"})
        cw.put_metric_data("NS", "M", 9.0, 1, {"Stream": "b"})
        assert cw.get_series("NS", "M", {"Stream": "a"})[1] == [1.0]
        assert cw.get_series("NS", "M", {"Stream": "b"})[1] == [9.0]

    def test_unknown_metric_raises_with_known_list(self, cw):
        cw.put_metric_data("NS", "M", 1.0, 1)
        with pytest.raises(MonitoringError, match="NS/M"):
            cw.get_series("NS", "Nope")

    def test_list_metrics_filters_by_namespace(self, cw):
        cw.put_metric_data("A", "x", 1.0, 1)
        cw.put_metric_data("B", "y", 1.0, 1)
        assert cw.list_metrics("A") == [("A", "x")]
        assert set(cw.list_metrics()) == {("A", "x"), ("B", "y")}


class TestStatistics:
    def test_average_per_period(self, cw):
        _fill(cw, [10.0, 20.0, 30.0, 40.0])  # t=1..4
        stats = cw.get_metric_statistics("NS", "M", 0, 4, period=2)
        assert stats == [(2, 15.0), (4, 35.0)]

    def test_sum_max_min_count(self, cw):
        _fill(cw, [1.0, 2.0, 3.0])
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "Sum") == [(3, 6.0)]
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "Maximum") == [(3, 3.0)]
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "Minimum") == [(3, 1.0)]
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3, "SampleCount") == [(3, 3.0)]

    def test_percentile_statistic(self, cw):
        _fill(cw, [float(v) for v in range(1, 101)])
        stats = cw.get_metric_statistics("NS", "M", 0, 100, 100, "p50")
        assert stats[0][1] == pytest.approx(50.5)

    def test_windows_are_right_closed(self, cw):
        _fill(cw, [1.0, 2.0])  # t=1, t=2
        # Period (0, 1] contains t=1 only.
        stats = cw.get_metric_statistics("NS", "M", 0, 2, period=1)
        assert stats == [(1, 1.0), (2, 2.0)]

    def test_empty_periods_are_omitted(self, cw):
        cw.put_metric_data("NS", "M", 5.0, 10)
        stats = cw.get_metric_statistics("NS", "M", 0, 30, period=10)
        assert stats == [(10, 5.0)]

    def test_rejects_bad_period_and_range(self, cw):
        _fill(cw, [1.0])
        with pytest.raises(MonitoringError):
            cw.get_metric_statistics("NS", "M", 0, 10, period=0)
        with pytest.raises(MonitoringError):
            cw.get_metric_statistics("NS", "M", 10, 10, period=1)

    def test_get_metric_value_with_default(self, cw):
        assert cw.get_metric_value("NS", "Missing", now=10, window=10, default=7.0) == 7.0

    def test_get_metric_value_without_default_raises(self, cw):
        with pytest.raises(MonitoringError):
            cw.get_metric_value("NS", "Missing", now=10, window=10)

    def test_get_metric_value_rejects_non_positive_window(self, cw):
        """Regression: a zero or negative window used to read as an empty
        window and return the default instead of failing."""
        _fill(cw, [1.0, 2.0])
        for window in (0, -5):
            with pytest.raises(MonitoringError, match=r"window must be positive"):
                cw.get_metric_value("NS", "M", now=2, window=window, default=0.0)

    def test_get_metric_value_window(self, cw):
        _fill(cw, [1.0, 2.0, 3.0, 4.0])  # t=1..4
        # Window (2, 4] -> values 3, 4.
        assert cw.get_metric_value("NS", "M", now=4, window=2) == 3.5


def _bytes(values):
    """float64 bytes of a list: equal only where every value is bit for bit."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _brute_window(times, values, start, end):
    """The seed implementation's full-scan filter: start < t <= end."""
    return [v for t, v in zip(times, values) if start < t <= end]


def _brute_statistics(times, values, start, end, period, statistic):
    """The seed implementation: one full re-scan per candidate period."""
    results = []
    period_end = end
    while period_end > start:
        period_start = max(period_end - period, start)
        window = _brute_window(times, values, period_start, period_end)
        if window:
            results.append((period_end, _aggregate(window, statistic)))
        period_end -= period
    results.reverse()
    return results


class TestWindowBoundaries:
    """Right-closed ``(start, end]`` semantics at exact tick boundaries."""

    def test_start_boundary_excluded_end_included(self, cw):
        _fill(cw, [1.0, 2.0, 3.0, 4.0])  # t=1..4
        # (1, 3]: t=1 is on the start boundary and must be excluded;
        # t=3 is on the end boundary and must be included.
        assert cw.get_metric_value("NS", "M", now=3, window=2) == pytest.approx(2.5)
        assert cw.get_metric_statistics("NS", "M", 1, 3, 2) == [(3, 2.5)]

    def test_duplicate_timestamps_on_boundary(self, cw):
        for v in (1.0, 2.0, 3.0):
            cw.put_metric_data("NS", "M", v, 10)
        cw.put_metric_data("NS", "M", 9.0, 11)
        # All three t=10 points sit on the end boundary of (0, 10].
        assert cw.get_metric_value("NS", "M", now=10, window=10, statistic="Sum") == 6.0
        # ...and on the (excluded) start boundary of (10, 11].
        assert cw.get_metric_value("NS", "M", now=11, window=1, statistic="Sum") == 9.0

    def test_empty_window_default_with_existing_series(self, cw):
        _fill(cw, [1.0, 2.0])  # t=1, t=2
        # The series exists but the window (5, 10] is empty.
        assert cw.get_metric_value("NS", "M", now=10, window=5, default=-1.0) == -1.0
        with pytest.raises(MonitoringError, match=r"\(5, 10\]"):
            cw.get_metric_value("NS", "M", now=10, window=5)

    def test_single_datapoint_percentile(self, cw):
        cw.put_metric_data("NS", "M", 42.0, 1)
        for stat in ("p0", "p50", "p99", "p100"):
            assert cw.get_metric_value("NS", "M", now=1, window=1, statistic=stat) == 42.0
        assert cw.get_metric_statistics("NS", "M", 0, 1, 1, "p99") == [(1, 42.0)]


class TestBisectAgainstBruteForce:
    """The O(log n) fast path must equal the seed full-scan bit for bit."""

    def test_randomized_windows(self, cw):
        rng = np.random.default_rng(1234)
        steps = rng.integers(0, 3, size=400)  # duplicates and gaps
        times = np.cumsum(steps).tolist()
        values = rng.normal(50.0, 20.0, size=400).tolist()
        for t, v in zip(times, values):
            cw.put_metric_data("NS", "M", v, int(t))
        horizon = int(times[-1])
        for _ in range(200):
            a, b = sorted(rng.integers(-5, horizon + 5, size=2))
            if a == b:
                b += 1
            got = cw.get_series("NS", "M")
            window = cw._series[("NS", "M", ())].window(int(a), int(b))
            assert window == _brute_window(got[0], got[1], a, b)

    @pytest.mark.parametrize("statistic", ["Average", "Sum", "Maximum", "Minimum",
                                           "SampleCount", "p50", "p99"])
    def test_randomized_period_aggregation(self, statistic):
        rng = np.random.default_rng(987)
        cw = SimCloudWatch()
        times = np.cumsum(rng.integers(0, 4, size=300)).tolist()
        values = rng.uniform(0.0, 100.0, size=300).tolist()
        for t, v in zip(times, values):
            cw.put_metric_data("NS", "M", v, int(t))
        horizon = int(times[-1])
        for _ in range(60):
            a, b = sorted(int(x) for x in rng.integers(-3, horizon + 3, size=2))
            if a == b:
                b += 1
            period = int(rng.integers(1, 50))
            got = cw.get_metric_statistics("NS", "M", a, b, period, statistic)
            want = _brute_statistics(times, values, a, b, period, statistic)
            assert got == want  # bit-exact, not approx


_FRAME = ("A", "B", "C")
_STATISTICS = (*SUPPORTED_STATISTICS, "p0", "p50", "p99.9", "p100")
_values = st.one_of(
    st.integers(min_value=-1000, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    # Values == cannot tell apart: a step row must keep their bits.
    st.sampled_from([0.0, -0.0, math.nan]),
)
_spans = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just("span"),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        # A scalar broadcasts over the span, as capacity constants do
        # (in the batch that creates the frame, it makes a step row).
        st.tuples(*(st.one_of(_values, st.lists(_values, min_size=n, max_size=n))
                    for _ in _FRAME)),
        # The times as a range as often as a list of the gaps: it starts
        # one first gap after the clock and steps by the last gap (1 for
        # a gap of 0).
        st.booleans(),
    )
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.integers(0, 2), st.tuples(*(_values for _ in _FRAME))),
        _spans,
        st.tuples(st.just("lone"), st.integers(0, 2), _values),
        # A run's reservation: frames made after it start at that many
        # columns, frames that exist make room for as many more.
        st.tuples(st.just("reserve"), st.integers(0, 20)),
        # A read at an absolute `now`: windows recur across appends (a
        # memo must not serve them stale) and their edges land on
        # (duplicate) timestamps as often as between them.
        st.tuples(st.just("read"), st.integers(0, 24), st.integers(1, 6)),
    ),
    max_size=14,
)


class TestFramesAgainstBruteForce:
    """Frame storage must equal a per-series list model bit for bit,
    under any interleaving of tick appends, span appends, broadcast
    columns, one-row (lone) series and reservations, with reads in
    between: writes past a reservation included."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_ops)
    def test_reads_match_per_series_model(self, ops):
        cw = SimCloudWatch()
        model = {name: ([], []) for name in (*_FRAME, "L")}
        clock = 0
        for op in ops:
            kind = op[0]
            if kind == "tick":
                clock += op[1]
                cw.put_metric_frame("NS", _FRAME, clock, op[2], {"d": "x"})
                for name, value in zip(_FRAME, op[2]):
                    model[name][0].append(clock)
                    model[name][1].append(float(value))
            elif kind == "span":
                if op[3]:
                    step = op[1][-1] or 1
                    times = range(clock + op[1][0], clock + op[1][0] + len(op[1]) * step, step)
                    clock = times[-1]
                else:
                    times = []
                    for step in op[1]:
                        clock += step
                        times.append(clock)
                cw.put_metric_frame_batch("NS", _FRAME, times, op[2], {"d": "x"})
                for name, column in zip(_FRAME, op[2]):
                    if not isinstance(column, list):
                        column = [column] * len(times)
                    model[name][0].extend(times)
                    model[name][1].extend(float(v) for v in column)
            elif kind == "lone":
                clock += op[1]
                cw.put_metric_data("NS", "L", op[2], clock, {"d": "x"})
                model["L"][0].append(clock)
                model["L"][1].append(float(op[2]))
            elif kind == "reserve":
                cw.reserve(op[1])
            else:
                self._check_reads(cw, model, op[1], op[2])
        self._check_reads(cw, model, clock, 3)

    @staticmethod
    def _check_reads(cw, model, now, window):
        # By bytes: == cannot see a -0.0 stored as 0.0, or a NaN.
        for name, (times, values) in model.items():
            if not times:
                continue
            got_times, got_values = cw.get_series("NS", name, {"d": "x"})
            assert got_times == times
            assert _bytes(got_values) == _bytes(values)
            row = cw._series[("NS", name, (("d", "x"),))]
            assert row.times.tobytes() == np.asarray(times, dtype=np.int64).tobytes()
            assert row.values.tobytes() == _bytes(values)
            expected = _brute_window(times, values, now - window, now)
            assert _bytes(row.window(now - window, now)) == _bytes(expected)
            for statistic in _STATISTICS:
                got = cw.get_metric_value(
                    "NS", name, now=now, window=window, statistic=statistic,
                    dimensions={"d": "x"}, default=float("inf"),
                )
                want = _aggregate(expected, statistic) if expected else float("inf")
                assert _bytes([got]) == _bytes([want])
                for period in (1, 2, window):
                    got = cw.get_metric_statistics(
                        "NS", name, now - window, now, period, statistic, {"d": "x"}
                    )
                    want = _brute_statistics(times, values, now - window, now, period, statistic)
                    assert [t for t, _ in got] == [t for t, _ in want]
                    assert _bytes([v for _, v in got]) == _bytes([v for _, v in want])

    def test_sibling_rows_see_an_append_after_a_memoized_read(self, cw):
        cw.put_metric_frame("NS", ("A", "B"), 1, (1.0, 10.0))
        assert cw.get_metric_value("NS", "A", now=2, window=2) == 1.0
        cw.put_metric_frame("NS", ("A", "B"), 2, (3.0, 30.0))
        assert cw.get_metric_value("NS", "A", now=2, window=2) == 2.0
        assert cw.get_metric_value("NS", "B", now=2, window=2) == 20.0
        cw.put_metric_frame_batch("NS", ("A", "B"), [2, 2], ([5.0, 7.0], 0))
        assert cw.get_metric_value("NS", "A", now=2, window=1, statistic="Sum") == 15.0
        assert cw.get_metric_statistics("NS", "B", 0, 2, 1, "Maximum") == [(1, 10.0), (2, 30.0)]


def _frame_sizes(cloudwatch):
    """``(capacity, length)`` of every emitter frame's dense block, in
    creation order."""
    return [(frame._block.shape[1], frame._len) for frame in cloudwatch._frames.values()]


class TestRunReservation:
    """A run reserves its tick count before the engine runs, so a fresh
    run's frames are allocated once at their final size: never regrown,
    copied or left with slack."""

    @staticmethod
    def _flow(tick=1):
        return FlowBuilder("reserve", seed=1).workload(ConstantRate(900)).tick(tick).build()

    @pytest.mark.parametrize("tick, ticks", [(1, 3600), (5, 720)])
    def test_fresh_flow_run_fills_its_frames_exactly(self, tick, ticks):
        manager = self._flow(tick)
        manager.run(3600)
        assert _frame_sizes(manager.cloudwatch) == [(ticks, ticks)] * 3

    def test_fresh_fleet_run_fills_every_flows_frames_exactly(self):
        fleet = RegionFleetManager(
            [FleetFlowSpec(name=f"flow{i}", workload=ConstantRate(600 + 300 * i)) for i in range(2)],
            coordinate_period=None,
        )
        fleet.run(1800)
        for manager in fleet.managers.values():
            assert _frame_sizes(manager.cloudwatch) == [(1800, 1800)] * 3

    def test_later_runs_grow_existing_frames_by_doubling(self):
        manager = self._flow()
        capacities = []
        for _ in range(4):
            manager.run(900)
            capacities.append(_frame_sizes(manager.cloudwatch)[0])
        assert capacities == [(900, 900), (1800, 1800), (3600, 2700), (3600, 3600)]

    def test_lone_series_keep_their_small_start(self, cw):
        cw.reserve(5000)
        cw.put_metric_data("NS", "L", 1.0, 1)
        cw.put_metric_frame("NS", ("A", "B"), 1, (1.0, 2.0))
        assert cw._series[("NS", "L", ())].frame._block.shape[1] == 16
        assert _frame_sizes(cw) == [(5000, 1)]

    def test_writes_past_a_reservation_double(self, cw):
        cw.reserve(3)
        cw.put_metric_frame_batch("NS", ("A",), [1, 2, 3, 4], ([1.0, 2.0, 3.0, 4.0],))
        assert _frame_sizes(cw) == [(6, 4)]
        assert cw.get_series("NS", "A") == ([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])

    def test_negative_rows_rejected(self, cw):
        with pytest.raises(MonitoringError, match=r"rows must be non-negative, got -1"):
            cw.reserve(-1)

    def test_a_fleet_member_does_not_run_alone(self):
        """It shares the region's engine: running it would move every
        flow's clock but build and reserve only its own store."""
        fleet = RegionFleetManager(
            [FleetFlowSpec(name=f"flow{i}", workload=ConstantRate(600)) for i in range(2)],
            coordinate_period=None,
        )
        with pytest.raises(ConfigurationError, match=(
            r"flow 'flow0' shares its region's engine: run every flow with RegionFleetManager.run"
        )):
            fleet.managers["flow0"].run(600)
        assert fleet.engine.clock.now == 0
        for manager in fleet.managers.values():
            assert manager.cloudwatch._frame_columns == 16
            assert manager.cloudwatch._frames == {}

    def test_a_spanned_flow_stores_eighteen_dense_rows_and_no_time_column(self, monkeypatch):
        """144 B a flow-tick: the five span-constant capacities are
        steps and each frame's ticks are one time run."""
        spans = []
        run_span = _FlowPipeline.run_span

        def counted(self, clock, span_end):
            spans.append(span_end)
            run_span(self, clock, span_end)

        monkeypatch.setattr(_FlowPipeline, "run_span", counted)
        manager = (
            FlowBuilder("footprint", seed=11)
            .workload(SinusoidalRate(mean=1500, amplitude=1100, period=600))
            .control_all(style="adaptive", reference=60.0, period=30)
            .build()
        )
        manager.run(3600)
        frames = list(manager.cloudwatch._frames.values())
        assert [frame._block.shape for frame in frames] == [(7, 3600), (4, 3600), (7, 3600)]
        assert {frame._block.dtype for frame in frames} == {np.dtype(np.float64)}
        assert [(f._run_at, f._run_t0, f._run_step) for f in frames] == [([0], [1], [1])] * 3
        steps = [cell for frame in frames for cell in frame._cells if not isinstance(cell, int)]
        assert len(steps) == 5
        # Shards, VMs and write units scaled (the read capacity did
        # not); each change costs one entry, not one per tick.
        assert [len(cell.at) > 1 for cell in steps] == [True, True, True, True, False]
        assert sum(len(cell.at) for cell in steps) < len(spans)

    @pytest.mark.parametrize("duration, message", [
        (0, r"duration must be positive, got 0"),
        (-60, r"duration must be positive, got -60"),
        (90.5, r"duration 90.5s is not a multiple of the tick length 1s"),
    ])
    def test_invalid_duration_fails_in_the_engine(self, duration, message):
        manager = self._flow()
        with pytest.raises(SimulationError, match=message):
            manager.run(duration)
        fleet = RegionFleetManager(
            [FleetFlowSpec(name="flow0", workload=ConstantRate(600))], coordinate_period=None
        )
        with pytest.raises(SimulationError, match=message):
            fleet.run(duration)


class TestFrameValidation:
    """Every rejected frame append names what was wrong and leaves every
    row of the frame exactly as it was."""

    #: Row B of the ``framed`` frame: a number keeps B as steps.
    B = 5

    @pytest.fixture
    def framed(self, cw):
        cw.put_metric_frame_batch("NS", ("A", "B"), [1, 2], ([1.0, 2.0], self.B))
        assert isinstance(_only_frame(cw)._cells[1], int) == isinstance(self.B, list)
        return cw

    @staticmethod
    def _state(cw):
        return {key: (len(row), row.version, row.times.tolist(), row.values.tolist())
                for key, row in cw._series.items()}

    def _rejects(self, cw, call, match):
        before = self._state(cw)
        with pytest.raises(MonitoringError, match=match):
            call()
        assert self._state(cw) == before

    def test_disorder_inside_a_batch(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), [3, 5, 4], ([0.0] * 3, [0.0] * 3)
        ), r"time-ordered: got t=4 after t=5")

    def test_batch_before_the_frame_tail(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), [1, 3], ([0.0, 0.0], 0.0)
        ), r"time-ordered: got t=1 after t=2")

    def test_tick_before_the_frame_tail(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame("NS", ("A", "B"), 1, (0.0, 0.0)),
                      r"time-ordered: got t=1 after t=2")

    def test_column_length_differs_from_times(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), [3, 4], ([0.0, 0.0], [1.0, 2.0, 3.0])
        ), r"metric 'B': times and values must be equal length, got 2 and 3")

    def test_one_element_column_does_not_broadcast(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), [3, 4], ([7.0], [0.0, 0.0])
        ), r"metric 'A': .*got 2 and 1")

    def test_wrong_number_of_columns(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame("NS", ("A", "B"), 3, (1.0,)),
                      r"takes 2 values per timestamp, got 1")

    def test_non_numeric_column(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), [3, 4], ([0.0, 0.0], [[1.0], [2.0, 3.0]])
        ), r"flat numeric columns")

    def test_put_metric_data_into_a_frame_row(self, framed):
        self._rejects(framed, lambda: framed.put_metric_data("NS", "B", 1.0, 9),
                      r"series NS/B \(dimensions=\{\}\) belongs to the frame")

    def test_frame_over_an_existing_series(self, framed):
        framed.put_metric_data("NS", "C", 1.0, 1)
        self._rejects(framed, lambda: framed.put_metric_frame("NS", ("C", "D"), 2, (1.0, 2.0)),
                      r"series NS/C \(dimensions=\{\}\) is already stored outside the frame")
        assert framed.list_metrics() == [("NS", "A"), ("NS", "B"), ("NS", "C")]

    def test_frame_naming_a_metric_twice(self, cw):
        with pytest.raises(MonitoringError, match=r"names a metric twice"):
            cw.put_metric_frame("NS", ("A", "B", "A"), 1, (1.0, 2.0, 3.0))
        assert cw.list_metrics() == []

    @pytest.mark.parametrize("times, shown", [
        ([3, 4.5], "4.5"),
        ([3, 4.0], "4.0"),
        (["3", "4"], "'3'"),
        (np.array([3.0, 4.0]), "3.0"),
    ], ids=["fraction", "integral-float", "string", "float-array"])
    def test_non_integer_batch_times(self, framed, times, shown):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), times, ([0.0, 0.0], 0.0)
        ), rf"timestamps must be integers, got {re.escape(shown)}$")

    def test_non_integer_tick_time(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame("NS", ("A", "B"), 2.5, (0.0, 0.0)),
                      r"timestamps must be integers, got 2.5$")

    def test_truncated_times_cannot_pass_the_order_check(self, cw):
        """1.7 then 1.2 used to be stored as [1, 1]: 1.2 was checked
        against the truncated 1."""
        with pytest.raises(MonitoringError, match=r"timestamps must be integers, got 1.7$"):
            cw.put_metric_data("NS", "M", 1.0, 1.7)
        with pytest.raises(MonitoringError, match=r"timestamps must be integers, got 1.2$"):
            cw.put_metric_data("NS", "M", 1.0, 1.2)
        assert cw.list_metrics() == []

    def test_integer_types_and_ranges_are_accepted(self, framed):
        framed.put_metric_frame_batch(
            "NS", ("A", "B"), np.array([3, 4], dtype=np.int32), ([1.0, 1.0], 5)
        )
        framed.put_metric_frame("NS", ("A", "B"), np.int64(5), (1.0, 5))
        framed.put_metric_frame_batch("NS", ("A", "B"), range(6, 12, 2), ([1.0] * 3, 5))
        times, _ = framed.get_series("NS", "A")
        assert times == [1, 2, 3, 4, 5, 6, 8, 10]
        assert all(type(t) is int for t in times)

    def test_descending_range(self, framed):
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), range(9, 5, -2), ([0.0, 0.0], 0.0)
        ), r"time-ordered: got t=7 after t=9")

    def test_rejected_column_leaves_a_step_row_intact(self, cw):
        cw.put_metric_frame_batch("NS", ("S", "D"), [1, 2], (5, [1.0, 2.0]))
        self._rejects(cw, lambda: cw.put_metric_frame_batch(
            "NS", ("S", "D"), [3], (6, ["x"])
        ), r"metric 'D': datapoints must be numeric, got 'x'$")
        self._rejects(cw, lambda: cw.put_metric_frame("NS", ("S", "D"), 3, ("x", 3.0)),
                      r"metric 'S': datapoints must be numeric, got 'x'$")
        self._rejects(cw, lambda: cw.put_metric_frame("NS", ("S", "D"), 3, (6, "x")),
                      r"metric 'D': datapoints must be numeric, got 'x'$")
        cw.put_metric_frame_batch("NS", ("S", "D"), [3], (5, [3.0]))
        assert cw.get_series("NS", "S") == ([1, 2, 3], [5.0, 5.0, 5.0])

    @pytest.mark.parametrize("column, shown", [
        ([None, 1.0], "None"),
        (["3", "4"], "'3'"),
        ("34", "'34'"),
        (np.array([1.0, None]), "None"),
        (np.array([1, 2], dtype=object), r"array\(\[1, 2\], dtype=object\)"),
    ], ids=["none", "strings", "string", "object-nan", "object-numbers"])
    def test_non_number_column(self, framed, column, shown):
        for columns in (([0.0, 0.0], column), (column, [0.0, 0.0])):
            name = "B" if columns[1] is column else "A"
            self._rejects(framed, lambda: framed.put_metric_frame_batch(
                "NS", ("A", "B"), [3, 4], columns
            ), rf"metric '{name}': datapoints must be numeric, got {shown}$")

    @pytest.mark.parametrize("value, shown", [(None, "None"), ("3", "'3'"), (b"3", "b'3'")],
                             ids=["none", "string", "bytes"])
    def test_non_number_value(self, framed, value, shown):
        self._rejects(framed, lambda: framed.put_metric_frame("NS", ("A", "B"), 3, (1.0, value)),
                      rf"metric 'B': datapoints must be numeric, got {re.escape(shown)}$")
        self._rejects(framed, lambda: framed.put_metric_frame_batch(
            "NS", ("A", "B"), [3], ([1.0], value)
        ), rf"metric 'B': datapoints must be numeric, got {re.escape(shown)}$")
        framed.put_metric_data("NS", "L", 1.0, 1)
        self._rejects(framed, lambda: framed.put_metric_data("NS", "L", value, 2),
                      rf"metric 'L': datapoints must be numeric, got {re.escape(shown)}$")

    def test_nan_and_infinities_are_numbers(self, framed):
        special = [math.nan, math.inf, -math.inf]
        framed.put_metric_frame_batch("NS", ("A", "B"), [3, 4, 5], (special, special))
        framed.put_metric_frame("NS", ("A", "B"), 6, (np.float64(math.nan), -math.inf))
        framed.put_metric_data("NS", "L", math.inf, 1)
        _, values = framed.get_series("NS", "B")
        assert np.asarray(values[2:]).tobytes() == np.asarray(special + [-math.inf]).tobytes()
        assert framed.get_series("NS", "L") == ([1], [math.inf])

    def test_accepts_data_after_a_rejection(self, framed):
        with pytest.raises(MonitoringError):
            framed.put_metric_frame_batch("NS", ("A", "B"), [4, 3], ([0.0, 0.0], 0.0))
        framed.put_metric_frame_batch("NS", ("A", "B"), [3], ([9.0], 6))
        assert framed.get_series("NS", "A") == ([1, 2, 3], [1.0, 2.0, 9.0])
        assert framed.get_series("NS", "B") == ([1, 2, 3], [5.0, 5.0, 6.0])


class TestRejectedFirstWrite:
    """A write that creates its frame and is rejected stores nothing:
    no metric is listed, and the next valid write picks its own rows."""

    @pytest.mark.parametrize("write", [
        lambda cw: cw.put_metric_frame_batch("NS", ("A",), [1.5], ([1.0],)),
        lambda cw: cw.put_metric_frame_batch("NS", ("A", "S"), [1, 2], ([1.0, None], 4)),
        lambda cw: cw.put_metric_frame("NS", ("A", "S"), 1, (1.0, None)),
        lambda cw: cw.put_metric_data("NS", "A", None, 1),
        lambda cw: cw.put_metric_data("NS", "A", 1.0, 1.5),
    ], ids=["batch-time", "batch-value", "tick-value", "lone-value", "lone-time"])
    def test_leaves_no_metric(self, cw, write):
        with pytest.raises(MonitoringError):
            write(cw)
        assert cw.list_metrics("NS") == []
        assert cw._frames == {}
        with pytest.raises(MonitoringError, match="unknown metric NS/A"):
            cw.get_series("NS", "A")

    def test_next_write_picks_its_own_step_rows(self, cw):
        with pytest.raises(MonitoringError):
            cw.put_metric_frame_batch("NS", ("A", "S"), [1.5], ([1.0], 4))
        cw.put_metric_frame_batch("NS", ("A", "S"), [1, 2], (7, [4.0, 5.0]))
        frame = _only_frame(cw)
        assert isinstance(frame._cells[0], cloudwatch_module._Steps)
        assert isinstance(frame._cells[1], int)
        assert cw.get_series("NS", "A") == ([1, 2], [7.0, 7.0])
        assert cw.get_series("NS", "S") == ([1, 2], [4.0, 5.0])


class TestFrameValidationWithDenseB(TestFrameValidation):
    """The same cases with row B dense, so each rejection reaches both a
    step row and a block row."""

    B = [5, 5]


def _only_frame(cw):
    (frame,) = cw._frames.values()
    return frame


class TestTimeRunsAndSteps:
    """Times are arithmetic runs and span-constant rows are steps, and
    reads give back exactly what dense storage gave."""

    def test_ranges_join_one_run(self, cw):
        for first in range(1, 100, 10):
            cw.put_metric_frame_batch(
                "NS", ("A", "S"), range(first, first + 10), (np.arange(10.0), 3)
            )
        frame = _only_frame(cw)
        assert (frame._run_at, frame._run_t0, frame._run_step) == ([0], [1], [1])
        assert frame.times.tolist() == list(range(1, 101))

    def test_ticks_join_one_run(self, cw):
        for t in range(5, 505, 5):
            cw.put_metric_frame("NS", ("A",), t, (1.0,))
        frame = _only_frame(cw)
        assert (frame._run_at, frame._run_t0, frame._run_step) == ([0], [5], [5])

    def test_lists_split_into_fewest_runs(self, cw):
        times = [1, 2, 3, 3, 3, 7, 11, 12]
        cw.put_metric_frame_batch("NS", ("A",), times, ([0.0] * 8,))
        frame = _only_frame(cw)
        assert (frame._run_at, frame._run_t0, frame._run_step) == (
            [0, 3, 5, 7], [1, 3, 7, 12], [1, 0, 4, 0]
        )
        assert frame.times.tolist() == times
        for start in range(-1, 14):
            for end in range(start, 14):
                want = tuple(np.searchsorted(times, (start, end), side="right").tolist())
                assert frame.locate(start, end) == want

    def test_a_number_in_the_creating_batch_makes_a_step_row(self, cw):
        for first, capacity in ((1, 4), (4, 4), (7, 5)):
            cw.put_metric_frame_batch(
                "NS", ("A", "S"), range(first, first + 3), ([1.0, 2.0, 3.0], capacity)
            )
        frame = _only_frame(cw)
        assert frame._block.shape[0] == 1
        steps = frame._cells[1]
        assert (steps.at, steps.values) == ([0, 6], [4.0, 5.0])
        assert cw.get_series("NS", "S") == (list(range(1, 10)), [4.0] * 6 + [5.0] * 3)

    def test_steps_change_where_the_bits_change(self, cw):
        scalars = [0.0, 0.0, -0.0, -0.0, math.nan, math.nan, 1, 1.0]
        for t, value in enumerate(scalars, start=1):
            cw.put_metric_frame_batch("NS", ("S",), range(t, t + 1), (value,))
        steps = _only_frame(cw)._cells[0]
        assert steps.at == [0, 2, 4, 6]
        row = cw._series[("NS", "S", ())]
        assert row.values.tobytes() == _bytes(scalars)
        assert _bytes(row.window(1, 6)) == _bytes(scalars[1:6])

    def test_ticks_and_columns_on_a_step_row(self, cw):
        cw.put_metric_frame_batch("NS", ("A", "S"), [1, 2], ([1.0, 2.0], 7))
        cw.put_metric_frame("NS", ("A", "S"), 3, (3.0, 7))
        cw.put_metric_frame("NS", ("A", "S"), 4, (4.0, 8))
        cw.put_metric_frame_batch("NS", ("A", "S"), [5, 6, 7], ([0.0] * 3, [8, 9, 9]))
        steps = _only_frame(cw)._cells[1]
        assert (steps.at, steps.values) == ([0, 3, 5], [7.0, 8.0, 9.0])
        assert cw.get_series("NS", "S") == (list(range(1, 8)), [7.0] * 3 + [8.0] * 2 + [9.0] * 2)
        assert cw.get_metric_value("NS", "S", now=6, window=3, statistic="Sum") == 25.0

    def test_frames_made_by_a_tick_stay_dense(self, cw):
        cw.put_metric_frame("NS", ("A", "S"), 1, (1.0, 7))
        cw.put_metric_frame_batch("NS", ("A", "S"), range(2, 5), ([1.0] * 3, 7))
        frame = _only_frame(cw)
        assert frame._block.shape[0] == 2
        assert cw.get_series("NS", "S") == ([1, 2, 3, 4], [7.0] * 4)


class TestLeftFold:
    """Average and Sum fold left to right, as Python 3.11's ``sum()``
    adds: a compensated ``sum()`` (Python 3.12+, stood in for by
    ``fsum``) must not move them."""

    def test_average_and_sum_are_a_left_fold(self, cw, monkeypatch):
        monkeypatch.setattr(cloudwatch_module, "sum", math.fsum, raising=False)
        values = [0.1] * 10
        fold = 0.0
        for value in values:
            fold += value
        assert fold != math.fsum(values)
        assert _aggregate(values, "Sum") == fold
        assert _aggregate(values, "Average") == fold / 10
        cw.put_metric_frame_batch("NS", ("M",), range(1, 11), (values,))
        assert cw.get_metric_value("NS", "M", now=10, window=10, statistic="Sum") == fold
        assert cw.get_metric_statistics("NS", "M", 0, 10, 10, "Average") == [(10, fold / 10)]

    def test_the_run_path_adds_no_float_with_sum(self, monkeypatch):
        """No float is added by the builtin ``sum()`` on a fleet's or a
        catalog scenario's run path, coordinator and costs included:
        a compensated ``sum()`` could move a grant by a unit."""
        from repro.analysis.scorecard import run_smoke_scenario
        from repro.scenarios import catalog_scenario, run_scenario

        plain_sum = builtins.sum
        callers = []

        def guarded(iterable, /, start=0):
            total = plain_sum(iterable, start)
            frame = sys._getframe(1)
            if type(total) is float and frame.f_globals.get("__name__", "").startswith("repro"):
                callers.append(f"{frame.f_globals['__name__']}:{frame.f_lineno}")
            return total

        monkeypatch.setattr(builtins, "sum", guarded)
        fleet = run_smoke_scenario("fleet", duration=900)
        card = run_scenario(catalog_scenario("step-surge-worker-crash"))
        monkeypatch.undo()
        assert fleet.coordinator_passes and card.total_cost
        assert sorted(set(callers)) == []


class TestReadMemo:
    def test_memo_never_serves_stale_data(self, cw):
        _fill(cw, [10.0, 20.0])  # t=1, t=2
        assert cw.get_metric_value("NS", "M", now=2, window=2) == 15.0
        cw.put_metric_data("NS", "M", 90.0, 2)  # same timestamp, new data
        assert cw.get_metric_value("NS", "M", now=2, window=2) == 40.0
        assert cw.get_metric_statistics("NS", "M", 0, 2, 2) == [(2, 40.0)]
        cw.put_metric_data("NS", "M", 100.0, 3)
        assert cw.get_metric_statistics("NS", "M", 0, 3, 3) == [(3, 55.0)]

    def test_memoized_statistics_are_copies(self, cw):
        _fill(cw, [1.0, 2.0])
        first = cw.get_metric_statistics("NS", "M", 0, 2, 1)
        first.append((99, 99.0))  # a caller mutating its result...
        second = cw.get_metric_statistics("NS", "M", 0, 2, 1)
        assert second == [(1, 1.0), (2, 2.0)]  # ...must not poison the memo

    def test_empty_window_is_memoized_per_version(self, cw):
        _fill(cw, [1.0], start=1)
        assert cw.get_metric_value("NS", "M", now=10, window=2, default=0.0) == 0.0
        cw.put_metric_data("NS", "M", 7.0, 9)
        assert cw.get_metric_value("NS", "M", now=10, window=2, default=0.0) == 7.0


class TestStatisticValidation:
    def test_named_statistics_accepted(self):
        for stat in SUPPORTED_STATISTICS:
            assert validate_statistic(stat) == stat

    def test_percentiles_accepted(self):
        for stat in ("p0", "p50", "p99", "p99.9", "p100"):
            assert validate_statistic(stat) == stat

    def test_bad_statistics_rejected(self):
        for stat in ("Mean", "avg", "p101", "p-1", "pfoo", ""):
            with pytest.raises(MonitoringError):
                validate_statistic(stat)

    def test_malformed_percentiles_rejected(self):
        """Regression: ``float()`` accepts far more than CloudWatch's
        ``pNN[.N]`` grammar — whitespace, signs, underscores, exponents
        and ``nan`` must all be rejected, not parsed."""
        for stat in (
            "p 50", "p50 ", "p+50", "p-0", "p1_0", "p1e1", "pnan", "pinf",
            "p0x10", "p50.", "p.5", "p50.5.5", "p1234", "p100.1",
        ):
            with pytest.raises(MonitoringError):
                validate_statistic(stat)

    def test_percentile_boundaries_accepted(self):
        for stat in ("p0", "p0.0", "p100", "p100.0", "p99.999"):
            assert validate_statistic(stat) == stat

    def test_get_metric_statistics_rejects_unknown_statistic(self, cw):
        _fill(cw, [1.0])
        with pytest.raises(MonitoringError, match="unsupported statistic"):
            cw.get_metric_statistics("NS", "M", 0, 1, 1, "Median")

    def test_alarm_rejects_bad_statistic_at_construction(self):
        with pytest.raises(MonitoringError, match="percentile"):
            MetricAlarm("a", "NS", "M", threshold=1.0, statistic="p200")

    def test_alarm_accepts_percentile_statistic(self, cw):
        alarm = MetricAlarm("tail", "NS", "M", threshold=90.0, statistic="p99", period=10)
        cw.put_alarm(alarm)
        _fill(cw, [95.0] * 10)  # t=1..10
        assert alarm.evaluate(cw, 10) == "ALARM"


class TestAlarms:
    def test_alarm_fires_after_evaluation_periods(self, cw):
        fired = []
        alarm = MetricAlarm(
            name="high", namespace="NS", metric_name="M", threshold=50.0,
            comparison=">", period=1, evaluation_periods=2, on_alarm=fired.append,
        )
        cw.put_alarm(alarm)
        _fill(cw, [60.0, 40.0, 70.0, 80.0])  # t=1..4
        assert alarm.evaluate(cw, 2) == "OK"  # 60, 40 -> not all above
        assert alarm.evaluate(cw, 4) == "ALARM"  # 70, 80
        assert fired == [4]

    def test_insufficient_data_state(self, cw):
        alarm = MetricAlarm("a", "NS", "M", threshold=1.0, period=1, evaluation_periods=3)
        cw.put_metric_data("NS", "M", 5.0, 1)
        assert alarm.evaluate(cw, 1) == "INSUFFICIENT_DATA"

    def test_ok_callback_on_recovery(self, cw):
        recovered = []
        alarm = MetricAlarm(
            "a", "NS", "M", threshold=50.0, comparison=">",
            period=1, evaluation_periods=1, on_ok=recovered.append,
        )
        _fill(cw, [60.0, 10.0])
        assert alarm.evaluate(cw, 1) == "ALARM"
        assert alarm.evaluate(cw, 2) == "OK"
        assert recovered == [2]

    def test_evaluate_alarms_returns_breaching(self, cw):
        a1 = MetricAlarm("hot", "NS", "M", threshold=5.0, comparison=">", period=1)
        a2 = MetricAlarm("cold", "NS", "M", threshold=100.0, comparison=">", period=1)
        cw.put_alarm(a1)
        cw.put_alarm(a2)
        cw.put_metric_data("NS", "M", 50.0, 1)
        breaching = cw.evaluate_alarms(1)
        assert breaching == [a1]

    def test_rejects_bad_comparison(self):
        with pytest.raises(MonitoringError):
            MetricAlarm("a", "NS", "M", threshold=1.0, comparison="!=")

    def test_rejects_bad_evaluation_periods(self):
        with pytest.raises(MonitoringError):
            MetricAlarm("a", "NS", "M", threshold=1.0, evaluation_periods=0)

    @pytest.mark.parametrize("period", [0, -60])
    def test_rejects_non_positive_period(self, period):
        """Regression: such an alarm used to construct, then sit in
        INSUFFICIENT_DATA forever while its metric breached."""
        with pytest.raises(MonitoringError, match=r"alarm 'hot': period must be positive"):
            MetricAlarm("hot", "NS", "M", threshold=50.0, period=period)

    def test_query_errors_are_not_swallowed(self, cw):
        """Only a never-written metric reads as INSUFFICIENT_DATA; any
        other query error propagates instead of freezing the state."""
        _fill(cw, [99.0] * 5)
        alarm = MetricAlarm("hot", "NS", "M", threshold=50.0, period=1)
        assert alarm.evaluate(cw, 5) == "ALARM"
        alarm.period = 0
        with pytest.raises(MonitoringError, match="period must be positive"):
            alarm.evaluate(cw, 5)

    def test_unwritten_metric_is_insufficient_data(self, cw):
        alarm = MetricAlarm("later", "NS", "Missing", threshold=1.0, period=1)
        assert alarm.evaluate(cw, 10) == "INSUFFICIENT_DATA"
        cw.put_metric_data("NS", "Missing", 5.0, 10)
        assert alarm.evaluate(cw, 10) == "ALARM"
