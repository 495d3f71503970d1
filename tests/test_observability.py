"""Tests for the flight recorder: event bus, decision audit log,
tick profiler and the JSONL trace format."""

import json
import math

import pytest

from repro import FlowBuilder
from repro.control import (
    AdaptiveGainConfig,
    AdaptiveGainController,
    BoundedActuator,
    CallbackActuator,
    ControlLoop,
    Sensor,
)
from repro.core.errors import MonitoringError
from repro.core.flow import LayerKind
from repro.observability import (
    ControlDecision,
    DecisionLog,
    Event,
    EventBus,
    FlightRecorder,
    TickProfiler,
    read_jsonl,
    write_jsonl,
)
from repro.observability.profiler import HISTOGRAM_BOUNDS
from repro.simulation.clock import SimClock
from repro.simulation.engine import SimulationEngine
from repro.workload import ConstantRate


class TestEventBus:
    def test_publish_assigns_strictly_increasing_seq(self):
        bus = EventBus()
        a = bus.publish(5, "ingestion", "scale.up")
        b = bus.publish(5, "storage", "scale.down")
        assert (a.seq, b.seq) == (0, 1)
        assert len(bus) == 2

    def test_payload_is_copied(self):
        bus = EventBus()
        payload = {"from": 1}
        event = bus.publish(0, "flow", "scale.up", payload)
        payload["from"] = 99
        assert event.payload == {"from": 1}

    def test_validation(self):
        bus = EventBus()
        with pytest.raises(MonitoringError):
            bus.publish(-1, "flow", "scale.up")
        with pytest.raises(MonitoringError):
            bus.publish(0, "flow", "")

    def test_of_kind_matches_exact_and_prefix(self):
        bus = EventBus()
        bus.publish(0, "ingestion", "reshard")
        bus.publish(1, "ingestion", "reshard.complete")
        bus.publish(2, "ingestion", "throttle")
        assert [e.kind for e in bus.of_kind("reshard")] == ["reshard", "reshard.complete"]
        assert [e.kind for e in bus.of_kind("throttle")] == ["throttle"]

    def test_for_layer_and_counts(self):
        bus = EventBus()
        bus.publish(0, "ingestion", "throttle")
        bus.publish(1, "storage", "throttle")
        bus.publish(2, "storage", "throttle")
        assert len(bus.for_layer("storage")) == 2
        assert bus.counts() == {"throttle": 3}

    def test_subscribers_see_each_publish(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(0, "flow", "scale.up")
        bus.publish(1, "flow", "scale.down")
        assert [e.kind for e in seen] == ["scale.up", "scale.down"]

    def test_describe_is_one_line(self):
        event = Event(time=60, layer="ingestion", kind="scale.up", payload={"from": 2, "to": 4})
        text = event.describe()
        assert "\n" not in text
        assert "[t=60s]" in text and "from=2" in text

    def test_ordering_under_staggered_engine_tasks(self):
        """Two periodic tasks at different phases publish interleaved
        events: times must be non-decreasing, seq strictly increasing."""
        bus = EventBus()
        engine = SimulationEngine(clock=SimClock())
        engine.every(10, lambda now: bus.publish(now, "a", "tick.a"), name="a")
        engine.every(15, lambda now: bus.publish(now, "b", "tick.b"), phase=5, name="b")
        engine.run(60)
        events = bus.events
        assert len(events) > 6
        times = [e.time for e in events]
        assert times == sorted(times)
        seqs = [e.seq for e in events]
        assert seqs == list(range(len(events)))
        # Both publishers actually interleaved.
        assert {e.layer for e in events} == {"a", "b"}


class TestDecisionLog:
    def _decision(self, time=60, **overrides):
        base = dict(
            time=time,
            loop="ingestion",
            sensed=83.0,
            state_before=2.0,
            capacity_before=2.0,
            raw_command=3.15,
            applied_command=3.0,
            reference=60.0,
            error=23.0,
            gain=0.05,
        )
        base.update(overrides)
        return ControlDecision(**base)

    def test_reconstruct_replays_eq6(self):
        decision = self._decision()
        assert decision.reconstruct_command() == pytest.approx(2.0 + 0.05 * 23.0)
        assert decision.reconstruct_command() == pytest.approx(decision.raw_command)

    def test_reconstruct_none_without_gain(self):
        assert self._decision(gain=None).reconstruct_command() is None

    def test_clamped_and_acted_flags(self):
        decision = self._decision()
        assert decision.clamped  # 3.0 != 3.15
        assert decision.acted  # 3.0 != 2.0
        untouched = self._decision(raw_command=3.0, applied_command=3.0, capacity_before=3.0)
        assert not untouched.clamped and not untouched.acted

    def test_record_enforces_time_order(self):
        log = DecisionLog()
        log.record(self._decision(time=120))
        log.record(self._decision(time=120))  # same time is fine
        with pytest.raises(MonitoringError):
            log.record(self._decision(time=60))

    def test_filters_and_summary(self):
        log = DecisionLog()
        log.record(self._decision(time=60, loop="ingestion"))
        log.record(self._decision(time=60, loop="storage", raw_command=3.0,
                                  applied_command=3.0))
        log.record(self._decision(time=120, loop="ingestion"))
        assert log.loops() == ["ingestion", "storage"]
        assert len(log.for_loop("ingestion")) == 2
        assert len(log.clamps()) == 2
        rows = log.summary_rows()
        assert rows[0][:4] == ["ingestion", "2", "2", "2"]


class _FixedSensor(Sensor):
    def __init__(self, value):
        self.value = value

    def measure(self, now):
        return self.value


class TestDecisionCapture:
    """The audit log reconstructs a bounded-gain clamp end to end."""

    def _loop(self, cap=4.0, instrument=True):
        controller = AdaptiveGainController(
            AdaptiveGainConfig(reference=60.0, gamma=0.01, l_min=0.05, l_max=0.5,
                               use_memory=False)
        )
        plant = {"capacity": 2.0}
        inner = CallbackActuator(
            getter=lambda now: plant["capacity"],
            setter=lambda value, now: plant.__setitem__("capacity", value),
            minimum=1.0,
            maximum=100.0,
        )
        recorder = FlightRecorder()
        actuator = BoundedActuator(inner, cap=cap)
        if instrument:
            actuator.instrument(recorder.bus, "ingestion")
        loop = ControlLoop(
            name="ingestion",
            sensor=_FixedSensor(95.0),  # large error: command overshoots the cap
            controller=controller,
            actuator=actuator,
            period=60,
            decision_log=recorder.decisions,
            event_bus=recorder.bus,
        )
        return loop, recorder

    def test_bounded_clamp_is_reconstructable(self):
        loop, recorder = self._loop(cap=4.0)
        for now in (60, 120, 180, 240):
            loop.step(now)
        clamps = [d for d in recorder.decisions if d.clamped and d.applied_command == 4.0]
        assert clamps, "expected the share cap to clamp at least one command"
        decision = clamps[0]
        # Eq. 6 replays exactly from the recorded inputs.
        assert decision.reconstruct_command() == pytest.approx(decision.raw_command)
        assert decision.raw_command > 4.0
        assert decision.error == pytest.approx(35.0)
        assert decision.sensed == pytest.approx(95.0)
        # The clamp and the scale-up both hit the event bus.
        assert recorder.bus.of_kind("share.clamp")
        assert any(e.payload["to"] == 4.0 for e in recorder.bus.of_kind("scale.up"))

    def test_no_hooks_records_nothing(self):
        loop, recorder = self._loop(instrument=False)
        loop.decision_log = None
        loop.event_bus = None
        loop.step(60)
        assert len(recorder.decisions) == 0
        assert len(recorder.bus) == 0


class _SpinComponent:
    def on_tick(self, clock):
        math.sqrt(float(clock.now))


class TestTickProfiler:
    def test_engine_totals_are_consistent(self):
        profiler = TickProfiler()
        engine = SimulationEngine(clock=SimClock(), profiler=profiler)
        engine.add_component(_SpinComponent())
        engine.every(10, lambda now: None, name="noop")
        engine.run(100)
        assert profiler.tick_count == 100
        assert profiler.component_calls["_SpinComponent"] == 100
        assert profiler.task_calls["noop"] == 10
        # Per-tick timing wraps the component/task timings.
        assert profiler.instrumented_seconds <= profiler.tick_seconds_total
        assert profiler.tick_seconds_max <= profiler.tick_seconds_total
        assert sum(profiler.histogram) == profiler.tick_count

    def test_histogram_bucketing(self):
        profiler = TickProfiler()
        profiler.record_tick(1e-6)  # below first bound
        profiler.record_tick(1.0)  # overflow
        assert profiler.histogram[0] == 1
        assert profiler.histogram[-1] == 1
        assert len(profiler.histogram) == len(HISTOGRAM_BOUNDS) + 1

    def test_dict_round_trip(self):
        profiler = TickProfiler()
        profiler.record_component("pipeline", 0.25)
        profiler.record_task("control", 0.05)
        profiler.record_tick(0.3)
        clone = TickProfiler.from_dict(profiler.as_dict())
        assert clone.as_dict() == profiler.as_dict()

    def test_summary_mentions_hot_spots(self):
        profiler = TickProfiler()
        profiler.record_component("pipeline", 0.25)
        profiler.record_tick(0.3)
        text = profiler.summary()
        assert "pipeline" in text and "ticks: 1" in text


class TestJsonlRoundTrip:
    def test_events_decisions_profile_round_trip(self, tmp_path):
        recorder = FlightRecorder(profile=True)
        recorder.bus.publish(60, "ingestion", "scale.up", {"from": 2, "to": 4})
        recorder.bus.publish(60, "storage", "throttle", {"records": 10})
        recorder.decisions.record(
            ControlDecision(
                time=60, loop="ingestion", sensed=83.0, state_before=2.0,
                capacity_before=2.0, raw_command=3.15, applied_command=3.0,
                reference=60.0, error=23.0, gain=0.05,
            )
        )
        recorder.profiler.record_tick(0.001)
        path = tmp_path / "trace.jsonl"
        lines = recorder.to_jsonl(path)
        assert lines == 4  # 2 events + 1 decision + 1 profile

        data = read_jsonl(path)
        assert data["events"] == recorder.bus.events
        assert data["decisions"] == recorder.decisions.decisions
        assert data["profile"]["ticks"] == 1

    def test_rows_are_time_ordered(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [Event(time=120, layer="a", kind="k", seq=0)]
        decisions = [
            ControlDecision(time=60, loop="l", sensed=1.0, state_before=1.0,
                            capacity_before=1.0, raw_command=1.0, applied_command=1.0)
        ]
        write_jsonl(path, events=events, decisions=decisions)
        times = [json.loads(line)["time"] for line in path.read_text().splitlines()]
        assert times == [60, 120]

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(MonitoringError):
            read_jsonl(path)
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(MonitoringError):
            read_jsonl(path)


class TestManagerIntegration:
    def _run(self, profile=False, duration=900):
        recorder = FlightRecorder(profile=profile)
        manager = (
            FlowBuilder("observed", seed=3)
            .ingestion(shards=1)
            .analytics(vms=1)
            .storage(write_units=100)
            .workload(ConstantRate(1500))
            .control_all(style="adaptive", reference=60.0, period=60)
            .observe(recorder=recorder)
            .build()
        )
        return manager.run(duration), recorder

    def test_observed_flow_records_all_layers(self):
        result, recorder = self._run()
        assert result.recorder is recorder
        loops = set(recorder.decisions.loops())
        assert loops == {"ingestion", "analytics", "storage"}
        # The under-provisioned flow must have scaled somewhere, and the
        # decision carries the full Eq. 6 tuple.
        scaled = [
            d for d in recorder.decisions
            if d.acted and d.gain is not None and d.error is not None
        ]
        assert scaled
        assert scaled[0].reconstruct_command() == pytest.approx(scaled[0].raw_command)
        assert recorder.bus.of_kind("scale")
        # Dashboard grows the recorder sections.
        rendered = result.dashboard()
        assert "recent events" in rendered
        assert "control decisions" in rendered

    def test_profile_flag_times_the_pipeline(self):
        result, recorder = self._run(profile=True)
        assert recorder.profiler is not None
        assert recorder.profiler.tick_count == result.duration_seconds
        assert "_FlowPipeline" in recorder.profiler.component_seconds
        assert recorder.profiler.instrumented_seconds <= recorder.profiler.tick_seconds_total

    def test_unobserved_flow_has_no_recorder(self):
        manager = (
            FlowBuilder("plain", seed=3)
            .workload(ConstantRate(500))
            .control_all(style="adaptive")
            .build()
        )
        result = manager.run(300)
        assert result.recorder is None
        assert manager.engine.profiler is None

    def test_observe_defaults_build_a_recorder(self):
        manager = (
            FlowBuilder("auto", seed=3)
            .workload(ConstantRate(500))
            .control_all(style="adaptive")
            .observe()
            .build()
        )
        assert manager.recorder is not None
        assert manager.recorder.profiler is None

    def test_fault_injection_is_published(self):
        from repro import ChaosSchedule, FaultKind, FaultSpec

        recorder = FlightRecorder()
        crash = FaultSpec(FaultKind.WORKER_CRASH, start=120, intensity=1)
        manager = (
            FlowBuilder("faulty", seed=3)
            .analytics(vms=3)
            .workload(ConstantRate(500))
            .chaos(ChaosSchedule(faults=(crash,), seed=3))
            .observe(recorder=recorder)
            .build()
        )
        result = manager.run(300)
        injected = recorder.bus.of_kind("fault.inject")
        assert len(injected) == 1
        assert injected[0].payload["detail"] == result.chaos_events[0].detail
        assert manager.fleet.running_count(300) == 2

    def test_summary_is_renderable(self):
        _, recorder = self._run(profile=True)
        text = recorder.summary()
        assert "flight recorder:" in text
        assert "events by kind:" in text
        assert "decisions by loop" in text
        assert "tick profile:" in text

    def test_share_bound_clamp_recorded_in_flow(self):
        recorder = FlightRecorder()
        manager = (
            FlowBuilder("capped", seed=3)
            .ingestion(shards=1)
            .analytics(vms=1)
            .storage(write_units=100)
            .workload(ConstantRate(2500))
            .control_all(style="adaptive", reference=60.0, period=60)
            .share_bounds({LayerKind.INGESTION: 2,
                           LayerKind.ANALYTICS: 2,
                           LayerKind.STORAGE: 150})
            .observe(recorder=recorder)
            .build()
        )
        manager.run(1200)
        clamp_events = recorder.bus.of_kind("share.clamp")
        assert clamp_events, "overloaded capped flow should hit its share bound"
        assert recorder.decisions.clamps()
