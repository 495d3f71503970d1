"""Chaos harness tests: schedule DSL, per-layer injectors, control-plane
hardening (retry/backoff/circuit breaker, sensor hold-last), and the
always-on invariant checker — including a deliberately broken simulator
mutation the checker must catch."""

from dataclasses import replace

import pytest

from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder
from repro.chaos import FAULT_LAYER, recovery_times
from repro.cloud import SimCloudWatch, SimDynamoDBTable, SimEC2Fleet, SimKinesisStream
from repro.cloud.storm import SimStormCluster
from repro.control.actuators import RetryingActuator
from repro.control.base import Actuator
from repro.control.sensors import CloudWatchSensor
from repro.core.errors import ConfigurationError, SimulationError, TransientAPIError
from repro.core.manager import _FlowPipeline
from repro.observability.events import EventBus
from repro.simulation import SimClock
from repro.workload import ConstantRate, SinusoidalRate, StepRate


def _sine_chaos_builder(schedule, seed=11, mean=1200, amplitude=600):
    return (
        FlowBuilder("chaos", seed=seed)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(SinusoidalRate(mean=mean, amplitude=amplitude, period=600))
        .control_all(style="adaptive", reference=60.0, period=30)
        .chaos(schedule)
    )


# ----------------------------------------------------------------------
# Scenario DSL
# ----------------------------------------------------------------------
class TestFaultSpecValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=-1, duration=10, intensity=0.5)

    def test_point_fault_rejects_duration(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=10, duration=5, intensity=1)

    def test_windowed_fault_requires_duration(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.THROTTLE_STORM, start=10, duration=0, intensity=0.5)

    @pytest.mark.parametrize("intensity", [0.0, 1.0, 1.5, -0.2])
    def test_fraction_kinds_require_open_unit_interval(self, intensity):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=0, duration=60, intensity=intensity)

    def test_scalar_kinds_require_at_least_one(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.RESHARD_STALL, start=0, duration=60, intensity=0.5)

    def test_kind_coerced_from_string(self):
        spec = FaultSpec(kind="metric-dropout", start=5, duration=10)
        assert spec.kind is FaultKind.METRIC_DROPOUT
        assert spec.layer == "monitoring"

    def test_every_kind_has_a_layer(self):
        assert set(FAULT_LAYER) == set(FaultKind)


class TestChaosScheduleValidation:
    def test_same_kind_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSchedule(faults=(
                FaultSpec(kind=FaultKind.THROTTLE_STORM, start=0, duration=100, intensity=0.5),
                FaultSpec(kind=FaultKind.THROTTLE_STORM, start=99, duration=50, intensity=0.3),
            ))

    def test_back_to_back_windows_allowed(self):
        schedule = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.THROTTLE_STORM, start=0, duration=100, intensity=0.5),
            FaultSpec(kind=FaultKind.THROTTLE_STORM, start=100, duration=50, intensity=0.3),
        ))
        assert len(schedule.faults) == 2

    def test_different_kinds_may_overlap(self):
        schedule = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.THROTTLE_STORM, start=0, duration=100, intensity=0.5),
            FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=50, duration=100, intensity=0.5),
        ))
        assert schedule.layers == {"storage", "ingestion"}

    def test_point_faults_never_overlap(self):
        schedule = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=10, intensity=1),
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=10, intensity=2),
        ))
        assert len(schedule.faults) == 2

    def test_empty_schedule_is_falsy(self):
        assert not ChaosSchedule()
        assert ChaosSchedule(faults=(FaultSpec(kind=FaultKind.METRIC_DROPOUT, start=0, duration=1),))

    def test_json_roundtrip(self):
        schedule = ChaosSchedule(
            faults=(
                FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=60, duration=120, intensity=0.4),
                FaultSpec(kind=FaultKind.WORKER_CRASH, start=300, intensity=2),
            ),
            seed=99,
            name="roundtrip",
        )
        restored = ChaosSchedule.from_json(schedule.to_json())
        assert restored == schedule
        assert restored.name == "roundtrip"


# ----------------------------------------------------------------------
# Per-service fault hooks
# ----------------------------------------------------------------------
class TestKinesisFaults:
    def test_brownout_scales_write_capacity(self):
        stream = SimKinesisStream(shards=4)
        base_records = stream.write_capacity_records(0)
        base_bytes = stream.write_capacity_bytes(0)
        stream.set_brownout(0.5)
        assert stream.write_capacity_records(0) == int(base_records * 0.5)
        assert stream.write_capacity_bytes(0) == int(base_bytes * 0.5)
        stream.clear_brownout()
        assert stream.write_capacity_records(0) == base_records

    def test_brownout_validation(self):
        stream = SimKinesisStream(shards=1)
        with pytest.raises(ConfigurationError):
            stream.set_brownout(1.0)
        with pytest.raises(ConfigurationError):
            stream.set_brownout(0.0)

    def test_reshard_stall_stretches_new_reshards(self):
        plain = SimKinesisStream(shards=2)
        plain.update_shard_count(4, now=0)
        plain_ready = plain._reshard_ready_at

        stalled = SimKinesisStream(shards=2)
        stalled.set_reshard_stall(3.0)
        stalled.update_shard_count(4, now=0)
        assert stalled._reshard_ready_at == 3 * plain_ready

    def test_stall_inflight_reshard_extends_remaining_time(self):
        stream = SimKinesisStream(shards=2)
        stream.update_shard_count(4, now=0)
        ready = stream._reshard_ready_at
        stream.set_reshard_stall(2.0)
        extended = stream.stall_inflight_reshard(now=10)
        assert extended == 10 + 2 * (ready - 10)
        assert stream.resharding(ready + 1)
        # No reshard in flight: nothing to stall.
        assert stream.stall_inflight_reshard(now=extended + 1) is None


class TestStormFaults:
    def test_forced_rebalance_pauses_processing(self):
        fleet = SimEC2Fleet(initial_instances=2)
        cluster = SimStormCluster(fleet)
        until = cluster.force_rebalance(now=100, duration=60)
        assert until == 160
        assert cluster.rebalancing(100)
        assert cluster._capacity_this_tick(2, 100) == 0
        assert not cluster.rebalancing(160)
        assert cluster._capacity_this_tick(2, 160) > 0

    def test_forced_rebalance_extends_not_shrinks(self):
        fleet = SimEC2Fleet(initial_instances=1)
        cluster = SimStormCluster(fleet)
        cluster.force_rebalance(now=0, duration=100)
        assert cluster.force_rebalance(now=10, duration=20) == 100

    def test_next_capacity_event_reports_forced_window_end(self):
        fleet = SimEC2Fleet(initial_instances=1)
        cluster = SimStormCluster(fleet)
        until = cluster.force_rebalance(now=0, duration=45)
        assert cluster.next_capacity_event(10) == until


class TestDynamoDBFaults:
    def test_throttle_storm_scales_effective_capacity_only(self):
        table = SimDynamoDBTable(write_units=200, read_units=100)
        table.set_throttle_storm(0.6)
        assert table.writes.effective(0) == int(200 * 0.4)
        assert table.reads.effective(0) == int(100 * 0.4)
        # Provisioned (billed) capacity is untouched by the storm.
        assert table.writes.capacity(0) == 200
        assert table.reads.capacity(0) == 100
        table.clear_throttle_storm()
        assert table.writes.effective(0) == 200

    def test_throttle_storm_rejects_excess_writes(self):
        clock = SimClock()
        clock.advance()
        healthy = SimDynamoDBTable(write_units=100, config=None)
        healthy.writes.bucket = 0.0
        accepted_healthy = healthy.writes.consume(100, clock).accepted_units

        stormy = SimDynamoDBTable(write_units=100, config=None)
        stormy.writes.bucket = 0.0
        stormy.set_throttle_storm(0.5)
        accepted_stormy = stormy.writes.consume(100, clock).accepted_units
        assert accepted_stormy < accepted_healthy

    def test_update_reject_raises_transient_error(self):
        table = SimDynamoDBTable(write_units=100, read_units=50)
        table.fail_updates()
        with pytest.raises(TransientAPIError):
            table.writes.update(150, now=0)
        with pytest.raises(TransientAPIError):
            table.reads.update(80, now=0)
        table.restore_updates()
        assert table.writes.update(150, now=0) == 150


class TestMonitoringFaults:
    @staticmethod
    def _sensor(cloudwatch, hold=0):
        return CloudWatchSensor(cloudwatch, "NS", "M", window=60, hold_last_for=hold)

    def test_delay_shifts_the_read_window(self):
        cw = SimCloudWatch()
        cw.put_metric_data("NS", "M", 10.0, 100)
        cw.put_metric_data("NS", "M", 90.0, 200)
        sensor = self._sensor(cw)
        assert sensor.measure(230) == 90.0
        cw.sensor_delay_seconds = 100
        assert sensor.measure(230) == 10.0  # sees the window ending at 130

    def test_dropout_returns_none_without_hold_budget(self):
        cw = SimCloudWatch()
        cw.put_metric_data("NS", "M", 42.0, 50)
        sensor = self._sensor(cw)
        assert sensor.measure(60) == 42.0
        cw.sensor_dropout = True
        assert sensor.measure(120) is None
        assert sensor.last_stale is False

    def test_dropout_serves_held_value_within_budget(self):
        cw = SimCloudWatch()
        cw.put_metric_data("NS", "M", 42.0, 50)
        sensor = self._sensor(cw, hold=180)
        assert sensor.measure(60) == 42.0
        cw.sensor_dropout = True
        assert sensor.measure(120) == 42.0
        assert sensor.last_stale is True
        # Past the staleness budget the sensor gives up.
        assert sensor.measure(60 + 181) is None

    def test_degraded_events_published_once_per_episode(self):
        cw = SimCloudWatch()
        cw.put_metric_data("NS", "M", 42.0, 50)
        bus = EventBus()
        sensor = self._sensor(cw, hold=300)
        sensor.instrument(bus, "monitoring")
        sensor.measure(60)
        cw.sensor_dropout = True
        sensor.measure(120)
        sensor.measure(180)
        cw.sensor_dropout = False
        cw.put_metric_data("NS", "M", 50.0, 200)
        assert sensor.measure(240) == 50.0
        kinds = [e.kind for e in bus]
        assert kinds.count("degraded.sensor") == 1
        assert kinds.count("degraded.recovered") == 1


# ----------------------------------------------------------------------
# Retry + circuit breaker
# ----------------------------------------------------------------------
class _ScriptedActuator(Actuator):
    """Inner actuator whose per-attempt outcomes follow a script.

    ``script`` holds one bool per *attempt*: True fails the attempt with
    TransientAPIError, False lets it succeed. An exhausted script always
    succeeds.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.capacity = 5.0
        self.attempts = 0

    def get(self, now):
        return self.capacity

    def apply(self, target, now):
        self.attempts += 1
        if self.script and self.script.pop(0):
            raise TransientAPIError("injected")
        self.capacity = target
        return target


class TestRetryingActuator:
    def test_retries_through_transient_failures(self):
        inner = _ScriptedActuator([True, True, False])
        actuator = RetryingActuator(inner, max_attempts=3)
        assert actuator.apply(8.0, now=0) == 8.0
        assert inner.attempts == 3
        assert actuator.failed_attempts == 2
        assert actuator.circuit_open_until == 0

    def test_exhausted_call_returns_current_capacity(self):
        inner = _ScriptedActuator([True, True, True])
        actuator = RetryingActuator(inner, max_attempts=3, breaker_threshold=2)
        assert actuator.apply(8.0, now=0) == 5.0  # shed: capacity untouched
        assert actuator.circuit_open_until == 0  # one failure, threshold 2

    def test_breaker_opens_after_threshold_and_sheds(self):
        inner = _ScriptedActuator([True] * 6)
        actuator = RetryingActuator(
            inner, max_attempts=3, breaker_threshold=2, cooldown_seconds=60
        )
        actuator.apply(8.0, now=0)
        actuator.apply(8.0, now=30)
        assert actuator.circuit_open_until == 30 + 60
        # While open, the inner actuator is not even tried.
        before = inner.attempts
        assert actuator.apply(9.0, now=45) == 5.0
        assert inner.attempts == before

    def test_half_open_probe_success_closes_and_resets(self):
        inner = _ScriptedActuator([True] * 6)
        bus = EventBus()
        actuator = RetryingActuator(
            inner, max_attempts=3, breaker_threshold=2, cooldown_seconds=60
        )
        actuator.instrument(bus, "storage")
        actuator.apply(8.0, now=0)
        actuator.apply(8.0, now=30)  # opens until 90
        assert actuator.apply(9.0, now=120) == 9.0  # half-open probe succeeds
        kinds = [e.kind for e in bus]
        assert kinds.count("circuit.open") == 1
        assert kinds.count("circuit.close") == 1
        assert kinds.count("actuation.retry") == 6
        # Backoff reset: the next opening starts at the base cooldown.
        inner.script = [True] * 6
        actuator.apply(8.0, now=200)
        actuator.apply(8.0, now=230)
        assert actuator.circuit_open_until == 230 + 60

    def test_reopening_doubles_cooldown_up_to_cap(self):
        inner = _ScriptedActuator([True] * 100)
        actuator = RetryingActuator(
            inner, max_attempts=1, breaker_threshold=1,
            cooldown_seconds=60, max_cooldown_seconds=200,
        )
        now, cooldowns = 0, []
        for _ in range(4):
            actuator.apply(8.0, now=now)
            cooldowns.append(actuator.circuit_open_until - now)
            now = actuator.circuit_open_until  # next call is the probe
        assert cooldowns == [60, 120, 200, 200]

    def test_reads_always_pass_through(self):
        inner = _ScriptedActuator([True] * 10)
        actuator = RetryingActuator(inner, max_attempts=1, breaker_threshold=1)
        actuator.apply(8.0, now=0)  # opens the circuit
        assert actuator.get(10) == 5.0


# ----------------------------------------------------------------------
# Injector determinism + span regression
# ----------------------------------------------------------------------
FULL_SCHEDULE = ChaosSchedule(faults=(
    FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=300, duration=300, intensity=0.5),
    FaultSpec(kind=FaultKind.WORKER_CRASH, start=900, intensity=1),
    FaultSpec(kind=FaultKind.THROTTLE_STORM, start=1200, duration=300, intensity=0.6),
    FaultSpec(kind=FaultKind.METRIC_DROPOUT, start=1600, duration=120),
), seed=7)


class TestChaosRuns:
    def test_same_schedule_and_seed_reproduce_exactly(self):
        def run():
            result = _sine_chaos_builder(FULL_SCHEDULE).build().run(1800)
            fingerprint = [
                (key[0], key[1], len(series.times), float(series.values.sum()))
                for key, series in sorted(result.cloudwatch._series.items())
            ]
            return result.chaos_events, fingerprint

        events_a, metrics_a = run()
        events_b, metrics_b = run()
        assert events_a == events_b
        assert metrics_a == metrics_b

    def test_every_fault_appears_in_the_timeline(self):
        result = _sine_chaos_builder(FULL_SCHEDULE).build().run(1800)
        injected = {e.fault for e in result.chaos_events if e.phase == "inject"}
        assert injected == {
            "shard-brownout", "worker-crash", "throttle-storm", "metric-dropout",
        }
        cleared = {e.fault for e in result.chaos_events if e.phase == "clear"}
        assert "worker-crash" not in cleared  # point fault: nothing to clear
        assert {"shard-brownout", "throttle-storm", "metric-dropout"} <= cleared

    def test_worker_crash_kills_requested_count(self):
        schedule = ChaosSchedule(
            faults=(FaultSpec(kind=FaultKind.WORKER_CRASH, start=60, intensity=2),), seed=3
        )
        manager = (
            FlowBuilder("crash", seed=5)
            .ingestion(shards=2)
            .analytics(vms=4)
            .storage(write_units=300)
            .workload(ConstantRate(800))
            .chaos(schedule)
            .build()
        )
        manager.run(120)
        assert manager.fleet.running_count(120) == 2
        crash = [e for e in manager.chaos_injector.events if e.fault == "worker-crash"]
        assert len(crash) == 1 and crash[0].detail.startswith("instances=")

    def test_chaos_keeps_span_execution_enabled(self):
        manager = _sine_chaos_builder(FULL_SCHEDULE).build()
        manager.run(1800)
        assert manager.engine.last_run_used_spans is True

    def test_recovery_times_cover_layer_faults(self):
        result = _sine_chaos_builder(FULL_SCHEDULE).build().run(3600)
        samples = recovery_times(result, hold_seconds=120)
        by_fault = {s.fault: s for s in samples}
        # Monitoring faults have no layer utilization trace to settle.
        assert set(by_fault) == {"shard-brownout", "worker-crash", "throttle-storm"}
        assert by_fault["shard-brownout"].layer == "ingestion"
        assert by_fault["worker-crash"].injected_at == 900
        # The adaptive controller must actually recover from each one.
        assert all(s.recovered for s in samples)


# ----------------------------------------------------------------------
# Invariant checker
# ----------------------------------------------------------------------
class _SpanAwareCorruptor:
    """Deliberately broken 'simulator': leaks records into the stream
    buffer at t>=when, violating stream conservation. Span-compatible so
    the checker must catch it in either execution mode."""

    def __init__(self, stream, when=300, amount=1000):
        self.stream = stream
        self.when = when
        self.amount = amount
        self.done = False

    def _corrupt(self, now):
        if not self.done and now >= self.when:
            self.stream._buffer_records += self.amount
            self.done = True

    def on_tick(self, clock):
        self._corrupt(clock.now)

    def span_horizon(self, now, limit, tick_seconds):
        if self.done:
            return limit
        if self.when <= now:
            return now + tick_seconds
        due = now + tick_seconds * -(-(self.when - now) // tick_seconds)
        return min(limit, due)

    def run_span(self, clock, span_end):
        self._corrupt(span_end)


class TestInvariantChecker:
    def test_clean_run_has_zero_violations(self):
        result = _sine_chaos_builder(FULL_SCHEDULE).build().run(1800)
        report = result.invariants
        assert report is not None
        assert report.ok
        assert report.total_violations == 0
        assert report.checks > 0
        assert "violations: 0" in report.describe()

    def test_can_be_disabled(self):
        manager = (
            FlowBuilder("no-inv", seed=1)
            .workload(ConstantRate(500))
            .invariants(False)
            .build()
        )
        result = manager.run(300)
        assert manager.invariant_checker is None
        assert result.invariants is None

    @pytest.mark.parametrize("spans", [False, True])
    def test_broken_simulator_mutation_is_caught(self, spans):
        manager = (
            FlowBuilder("broken", seed=9)
            .ingestion(shards=2)
            .analytics(vms=2)
            .storage(write_units=300)
            .workload(ConstantRate(900))
            .control_all(style="adaptive", reference=60.0, period=30)
            .spans(spans)
            .build()
        )
        manager.engine.add_component(_SpanAwareCorruptor(manager.stream, when=300))
        result = manager.run(900)
        report = result.invariants
        assert not report.ok
        assert report.counts.get("conservation.stream", 0) >= 1
        assert any(v.invariant == "conservation.stream" for v in report.samples)

    def test_strict_mode_raises(self):
        manager = (
            FlowBuilder("strict", seed=9)
            .workload(ConstantRate(900))
            .build()
        )
        manager.invariant_checker._strict = True
        manager.engine.add_component(_SpanAwareCorruptor(manager.stream, when=120))
        with pytest.raises(SimulationError, match="conservation.stream"):
            manager.run(600)

    def test_violation_events_published_and_capped(self):
        manager = (
            FlowBuilder("events", seed=9)
            .workload(ConstantRate(900))
            .observe()
            .build()
        )
        manager.engine.add_component(_SpanAwareCorruptor(manager.stream, when=60))
        manager.run(600)
        violations = [e for e in manager.recorder.bus if e.kind == "invariant.violation"]
        assert violations
        assert len(violations) <= 10  # MAX_EVENTS_PER_INVARIANT

    def test_producer_bytes_are_conserved(self, monkeypatch):
        """Generated bytes = accepted + producer backlog + dropped, both
        in per-tick runs and in throttled stretches, across MAX_BACKLOG
        drops; a stretch that writes the byte backlog back one byte off
        breaks the balance."""
        monkeypatch.setattr(_FlowPipeline, "MAX_BACKLOG", 60_000)

        def run(spans):
            # 1800 records/s into one shard for 100 s, then 700: the
            # backlog hits the cap, then drains under throttled stretches.
            manager = (
                FlowBuilder("bytes", seed=5)
                .ingestion(shards=1)
                .workload(ConstantRate(700) + StepRate(base=0, level=1100, at=0, until=100))
                .spans(spans)
                .build()
            )
            manager.invariant_checker._strict = True
            result = manager.run(600)
            return manager._pipeline.dropped_bytes, result.invariants

        for spans in (False, True):
            dropped_bytes, report = run(spans)
            assert dropped_bytes > 0 and report.ok

        closed_form = _FlowPipeline._closed_form

        def one_byte_off(self, span, start, stop, saturated, producer):
            reached, columns = closed_form(self, span, start, stop, saturated, producer)
            if producer is not None:  # a throttled stretch
                self._producer_backlog_bytes += 1
            return reached, columns

        monkeypatch.setattr(_FlowPipeline, "_closed_form", one_byte_off)
        with pytest.raises(SimulationError, match="conservation.ingestion_bytes"):
            run(True)

    def test_report_is_the_same_in_both_execution_modes(self):
        """Span execution audits at span boundaries, the per-tick loop at
        every tick: apart from how many checks ran, the report must not
        depend on which. Under this load the faults leave backlogs that
        open and close between span boundaries."""

        def run(spans):
            builder = _sine_chaos_builder(FULL_SCHEDULE, mean=1800, amplitude=1000)
            return builder.spans(spans).build().run(1800).invariants

        reference, spanned = run(False), run(True)
        assert reference.checks > spanned.checks
        assert replace(reference, checks=0) == replace(spanned, checks=0)

    def test_checker_catches_fleet_bound_breach(self):
        manager = (
            FlowBuilder("bounds", seed=2)
            .workload(ConstantRate(500))
            .build()
        )
        checker = manager.invariant_checker
        # Shrink the configured ceiling behind the checker's back: the
        # two initial instances are now out of bounds.
        object.__setattr__(manager.fleet.config, "max_instances", 1)
        checker._check_capacity_bounds(0)
        assert checker.counts.get("bounds.analytics", 0) >= 1
