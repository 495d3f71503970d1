"""Telemetry: registry semantics, the registry a finished run builds,
execution-mode parity, and the dashboard/profiler surfaces."""

import pytest

from repro import FlowBuilder
from repro.core.errors import MonitoringError
from repro.monitoring import MetricCollector
from repro.observability import Telemetry, TickProfiler
from repro.observability.telemetry import HISTOGRAM_BOUNDS, Histogram
from repro.simulation.engine import SimulationEngine
from repro.workload import SinusoidalRate

DURATION = 1800
SEED = 7


def _managed_builder(spans=True, observe=False):
    builder = (
        FlowBuilder("telemetry", seed=SEED)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(SinusoidalRate(mean=1500.0, amplitude=900.0, period=DURATION))
        .control_all(style="adaptive", reference=60.0, period=60)
        .spans(spans)
    )
    if observe:
        builder.observe()
    return builder


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram()
        for value in (0.3, 1.0, 3.0, 2000.0):
            h.observe(value)
        assert h.count == 4
        assert h.maximum == 2000.0
        assert h.mean == pytest.approx((0.3 + 1.0 + 3.0 + 2000.0) / 4)
        assert sum(h.buckets) == h.count
        assert h.buckets[0] == 1          # 0.3 <= 0.5
        assert h.buckets[-1] == 1         # 2000 overflows the last bound
        assert len(h.buckets) == len(HISTOGRAM_BOUNDS) + 1

    def test_as_dict_is_json_shaped(self):
        h = Histogram()
        h.observe(5.0)
        d = h.as_dict()
        assert d["count"] == 1
        assert d["buckets"][len([b for b in HISTOGRAM_BOUNDS if b < 5.0])] == 1


class TestTelemetryRegistry:
    def test_counters_accumulate(self):
        t = Telemetry()
        t.inc("a")
        t.inc("a", 2)
        assert t.counter("a") == 3
        assert t.counter("missing") == 0

    def test_negative_increment_rejected(self):
        with pytest.raises(MonitoringError):
            Telemetry().inc("a", -1)

    def test_gauges_keep_last_value(self):
        t = Telemetry()
        t.set_gauge("g", 1.0)
        t.set_gauge("g", 7.0)
        assert t.gauge("g") == 7.0
        assert t.gauge("missing", default=-1.0) == -1.0

    def test_rows_and_render_cover_all_kinds(self):
        t = Telemetry()
        t.inc("c")
        t.set_gauge("g", 2.0)
        t.observe("h", 3.0)
        kinds = {row[2] for row in t.rows()}
        assert kinds == {"counter", "gauge", "histogram"}
        text = t.render()
        for name in ("c", "g", "h"):
            assert name in text

    def test_as_dict_sorted_and_json_ready(self):
        import json

        t = Telemetry()
        t.inc("z")
        t.inc("a")
        d = t.as_dict()
        assert list(d["counters"]) == ["a", "z"]
        json.dumps(d)


# ----------------------------------------------------------------------
# Managed-flow integration
# ----------------------------------------------------------------------
class TestManagedFlowTelemetry:
    def test_on_by_default_and_populated(self):
        result = _managed_builder().build().run(DURATION)
        t = result.telemetry
        assert t is not None
        # One decision counter tick per control pass per loop.
        assert t.counter("control.ingestion.decisions") == DURATION // 60
        assert t.counter("control.storage.decisions") == DURATION // 60
        # Gauges read at the end of the run.
        assert "pipeline.producer_backlog" in t.gauges
        assert "cost.storage" in t.gauges
        assert "actuator.storage.failed_attempts" in t.gauges
        assert "sensor.ingestion.stale" in t.gauges
        # Step sizes land in per-loop histograms when loops act.
        acted = sum(
            t.counter(f"control.{loop}.actions")
            for loop in ("ingestion", "analytics", "storage")
        )
        recorded = sum(h.count for h in t.histograms.values())
        assert recorded == acted

    def test_span_and_per_tick_runs_sample_identically(self):
        """Telemetry reads the finished run's state, which span and
        per-tick execution leave bit-identical."""
        spans = _managed_builder(spans=True).build().run(DURATION)
        ticks = _managed_builder(spans=False).build().run(DURATION)
        assert spans.telemetry.as_dict() == ticks.telemetry.as_dict()

    def test_wall_seconds_recorded(self):
        result = _managed_builder().build().run(DURATION)
        assert result.wall_seconds > 0.0

    def test_dashboard_renders_telemetry_section(self):
        result = _managed_builder(observe=True).build().run(DURATION)
        text = result.dashboard()
        assert "telemetry" in text
        assert "control.storage.decisions" in text
        assert "actuator.ingestion.breaker_openings" in text


class TestRunLoopDoesNoMonitoring:
    """The engine runs the flow, its controllers and its audits only:
    the collector's snapshots and the telemetry registry are read from
    the finished run."""

    @pytest.mark.parametrize("tick, duration", [(1, DURATION), (10, DURATION), (1, DURATION + 30)])
    def test_snapshots_and_telemetry_are_read_after_the_run(self, monkeypatch, tick, duration):
        running = []
        engine_run = SimulationEngine.run

        def tracked_run(engine, *args):
            running.append(engine)
            try:
                return engine_run(engine, *args)
            finally:
                running.pop()

        calls = []

        def tracked(name, method):
            def call(*args, **kwargs):
                calls.append((name, bool(running)))
                return method(*args, **kwargs)
            return call

        monkeypatch.setattr(SimulationEngine, "run", tracked_run)
        for name in ("inc", "set_gauge", "observe"):
            monkeypatch.setattr(Telemetry, name, tracked(name, getattr(Telemetry, name)))
        manager = _managed_builder().tick(tick).build()
        collector = manager.collector
        monkeypatch.setattr(collector, "collect", tracked("collect", collector.collect))
        # The same specs, collected by an engine task at the snapshot period.
        period = manager.snapshot_period
        in_run = MetricCollector(manager.cloudwatch, window=period)
        for spec in collector._specs:
            in_run.add(spec)
        manager.engine.every(period, in_run.collect, name="in-run-snapshots")

        result = manager.run(duration)
        snapshots = result.collector.snapshots
        assert {name for name, _ in calls} == {"collect", "inc", "set_gauge", "observe"}
        assert not [name for name, inside in calls if inside], "monitoring ran inside the run"
        assert result.telemetry is manager.telemetry

        def exact(snapshots):
            return [(s.time, [(k, repr(v)) for k, v in s.values.items()]) for s in snapshots]

        assert [s.time for s in in_run.snapshots] == list(range(period, duration + 1, period))
        assert exact(snapshots) == exact(in_run.snapshots)
        assert result.collector.series("analytics.cpu%").values == [
            s["analytics.cpu%"] for s in in_run.snapshots
        ]


# ----------------------------------------------------------------------
# Profiler surface (span counts + strict histogram loading)
# ----------------------------------------------------------------------
class TestProfilerSpanCounts:
    def test_span_count_round_trips(self):
        p = TickProfiler()
        p.record_span(10, 0.5)
        p.record_tick(0.01)
        assert p.span_count == 1
        assert p.tick_count == 11
        clone = TickProfiler.from_dict(p.as_dict())
        assert clone.span_count == 1
        assert clone.tick_count == 11

    def test_per_tick_profile_has_zero_spans(self):
        p = TickProfiler()
        p.record_tick(0.01)
        assert p.span_count == 0
        assert p.as_dict()["spans"] == 0

    def test_from_dict_rejects_mismatched_histogram(self):
        p = TickProfiler()
        p.record_tick(0.01)
        data = p.as_dict()
        data["histogram"] = [1, 2, 3]  # wrong bucket count
        with pytest.raises(MonitoringError, match="buckets"):
            TickProfiler.from_dict(data)

    def test_from_dict_accepts_empty_histogram(self):
        data = TickProfiler().as_dict()
        data["histogram"] = []
        clone = TickProfiler.from_dict(data)
        assert sum(clone.histogram) == 0
