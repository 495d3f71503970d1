"""Unit tests for the simulated CloudWatch metric store and alarms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import SUPPORTED_STATISTICS, MetricAlarm, SimCloudWatch, validate_statistic
from repro.cloud.cloudwatch import _aggregate
from repro.core.errors import MonitoringError


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
)
_spans = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just("span"),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        # A scalar broadcasts over the span, as capacity constants do.
        st.tuples(*(st.one_of(_values, st.lists(_values, min_size=n, max_size=n))
                    for _ in _FRAME)),
    )
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.integers(0, 2), st.tuples(*(_values for _ in _FRAME))),
        _spans,
        st.tuples(st.just("lone"), st.integers(0, 2), _values),
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
    columns and one-row (lone) series, with reads in between."""

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
            else:
                self._check_reads(cw, model, op[1], op[2])
        self._check_reads(cw, model, clock, 3)

    @staticmethod
    def _check_reads(cw, model, now, window):
        for name, (times, values) in model.items():
            if not times:
                continue
            assert cw.get_series("NS", name, {"d": "x"}) == (times, values)
            expected = _brute_window(times, values, now - window, now)
            for statistic in _STATISTICS:
                got = cw.get_metric_value(
                    "NS", name, now=now, window=window, statistic=statistic,
                    dimensions={"d": "x"}, default=float("inf"),
                )
                assert got == (_aggregate(expected, statistic) if expected else float("inf"))
                for period in (1, 2, window):
                    assert cw.get_metric_statistics(
                        "NS", name, now - window, now, period, statistic, {"d": "x"}
                    ) == _brute_statistics(times, values, now - window, now, period, statistic)

    def test_sibling_rows_see_an_append_after_a_memoized_read(self, cw):
        cw.put_metric_frame("NS", ("A", "B"), 1, (1.0, 10.0))
        assert cw.get_metric_value("NS", "A", now=2, window=2) == 1.0
        cw.put_metric_frame("NS", ("A", "B"), 2, (3.0, 30.0))
        assert cw.get_metric_value("NS", "A", now=2, window=2) == 2.0
        assert cw.get_metric_value("NS", "B", now=2, window=2) == 20.0
        cw.put_metric_frame_batch("NS", ("A", "B"), [2, 2], ([5.0, 7.0], 0))
        assert cw.get_metric_value("NS", "A", now=2, window=1, statistic="Sum") == 15.0
        assert cw.get_metric_statistics("NS", "B", 0, 2, 1, "Maximum") == [(1, 10.0), (2, 30.0)]


class TestFrameValidation:
    """Every rejected frame append names what was wrong and leaves every
    row of the frame exactly as it was."""

    @pytest.fixture
    def framed(self, cw):
        cw.put_metric_frame_batch("NS", ("A", "B"), [1, 2], ([1.0, 2.0], 5))
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

    def test_accepts_data_after_a_rejection(self, framed):
        with pytest.raises(MonitoringError):
            framed.put_metric_frame_batch("NS", ("A", "B"), [4, 3], ([0.0, 0.0], 0.0))
        framed.put_metric_frame_batch("NS", ("A", "B"), [3], ([9.0], 6))
        assert framed.get_series("NS", "A") == ([1, 2, 3], [1.0, 2.0, 9.0])
        assert framed.get_series("NS", "B") == ([1, 2, 3], [5.0, 5.0, 6.0])


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
