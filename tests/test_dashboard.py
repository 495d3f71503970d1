"""Unit tests for the text dashboard and its rendering helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.cloud import SimCloudWatch
from repro.core.errors import MonitoringError
from repro.monitoring import Dashboard, MetricCollector, render_table, sparkline


class TestSparkline:
    def test_constant_series_is_flat(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_ramp_is_monotone(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert line == "".join(sorted(line))

    def test_empty_series_is_blank(self):
        assert sparkline([], width=5) == "     "

    def test_downsamples_to_width(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10

    def test_short_series_not_padded(self):
        assert len(sparkline([1.0, 2.0], width=10)) == 2

    def test_width_validation(self):
        with pytest.raises(MonitoringError):
            sparkline([1.0], width=0)

    def test_downsampling_keeps_trailing_samples(self):
        """Regression: float bucket arithmetic used to drop the last
        samples — e.g. 15 samples at width 11 never saw index 14, so a
        trailing spike vanished from the sparkline."""
        values = [0.0] * 14 + [100.0]
        line = sparkline(values, width=11)
        assert line[-1] == "█"

    def test_downsampling_buckets_partition_the_series(self):
        # Bucket means of a constant series are that constant for every
        # width; any dropped or double-counted sample would break this.
        for n in range(2, 40):
            for width in range(1, n):
                assert sparkline([7.5] * n, width=width) == "▁" * width

    def test_downsampled_mean_is_exact_bucket_mean(self):
        # 6 values into 3 buckets of 2: means 1.5, 3.5, 5.5 — strictly
        # increasing, so the cells must be non-decreasing blocks.
        line = sparkline([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], width=3)
        assert len(line) == 3
        assert line == "".join(sorted(line))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_output_length_never_exceeds_width(self, values):
        assert len(sparkline(values, width=16)) <= 16

    @given(st.integers(min_value=17, max_value=200))
    def test_trailing_spike_always_visible(self, n):
        # A spike appended to a flat series lands in the last bucket,
        # which is then the unique maximum: its cell must be the full
        # block whatever (n, width) rounding is in play.
        line = sparkline([1.0] * (n - 1) + [1000.0], width=16)
        assert line[-1] == "█"
        assert set(line[:-1]) == {"▁"}


class TestRenderTable:
    def test_columns_align(self):
        table = render_table(["name", "v"], [["a", "1"], ["longer", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer" in lines[3]

    def test_row_width_validation(self):
        with pytest.raises(MonitoringError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(MonitoringError):
            render_table([], [])


class TestDashboard:
    def _collector(self):
        cw = SimCloudWatch()
        for t in range(10, 310, 10):
            cw.put_metric_data("NS", "M", float(t % 70), t)
        collector = MetricCollector(cw, window=60)
        collector.add_metric("layer.metric", "NS", "M")
        for t in (60, 120, 180, 240, 300):
            collector.collect(t)
        return collector

    def test_render_contains_all_measures(self):
        dashboard = Dashboard(self._collector(), title="Test view")
        output = dashboard.render()
        assert "Test view" in output
        assert "layer.metric" in output
        assert "last" in output and "mean" in output

    def test_render_without_snapshots_raises(self):
        cw = SimCloudWatch()
        collector = MetricCollector(cw)
        collector.add_metric("x", "NS", "M")
        with pytest.raises(MonitoringError):
            Dashboard(collector).render()

    def test_history_parameter_limits_sparkline_window(self):
        dashboard = Dashboard(self._collector())
        # Should not raise with a tiny history.
        assert dashboard.render(history=2)

    def test_history_must_be_positive(self):
        """Ten snapshots of the ramp 1..600: the last reads 570.5 and
        all ten average 300.5. A history of 0 would read all ten, and a
        negative one would drop the oldest."""
        cw = SimCloudWatch()
        for t in range(1, 601):
            cw.put_metric_data("NS", "M", float(t), t)
        collector = MetricCollector(cw, window=60)
        collector.add_metric("ramp", "NS", "M")
        for t in range(60, 601, 60):
            collector.collect(t)
        dashboard = Dashboard(collector)
        assert "300.5" in dashboard.render(history=10)
        row = dashboard.render(history=1).splitlines()[-1]
        assert row.split()[-4:] == ["570.5"] * 4
        for history in (0, -2):
            with pytest.raises(MonitoringError, match="history"):
                dashboard.render(history=history)

    def test_recorder_sections_render(self):
        from repro.monitoring.dashboard import render_events
        from repro.observability import ControlDecision, FlightRecorder

        recorder = FlightRecorder()
        recorder.bus.publish(60, "ingestion", "scale.up", {"from": 2, "to": 4})
        recorder.decisions.record(
            ControlDecision(time=60, loop="ingestion", sensed=83.0,
                            state_before=2.0, capacity_before=2.0,
                            raw_command=4.0, applied_command=4.0, gain=0.05)
        )
        output = Dashboard(self._collector(), recorder=recorder).render()
        assert "recent events" in output
        assert "scale.up" in output
        assert "control decisions" in output
        assert "ingestion" in output
        # The standalone event renderer handles the empty case too.
        assert render_events([]) == "(no events recorded)"
        with pytest.raises(MonitoringError):
            render_events([], limit=0)
