"""Span execution must be bit-identical to the per-tick reference loop.

Every test here runs the same flow twice — once with span-batched
execution (the default) and once with ``.spans(False)`` forcing the
per-tick loop — and asserts the complete observable state matches
exactly: every raw metric datapoint (compared by ``repr`` so a single
ULP of drift fails), cost-meter accumulators, drop counters, collector
snapshots, and control decisions.

Bus *events* are compared as per-timestamp multisets: the span path may
emit same-timestamp events in a different relative order (e.g. a read
``capacity.applied`` lands before a throttle episode), but the set of
events at each simulated second is identical.

Scenario coverage targets exactly the hazards inside a span: reshard
completions, topology rebalances, EC2 warm-ups, aggregation-window
flushes, and MAX_BACKLOG crossings.
"""

import random

import pytest

from repro.chaos import ChaosSchedule, FaultKind, FaultSpec
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.storm import BoltSpec, TopologyConfig
from repro.core.builder import FlowBuilder
from repro.core.flow import LayerKind
from repro.core.manager import FlowElasticityManager, ServiceCapacities, _FlowPipeline
from repro.workload.generators import (
    ConstantRate,
    FlashCrowdRate,
    SinusoidalRate,
    StepRate,
)


def _raw_metrics(result):
    """Every stored datapoint of every series, reprs at full precision."""
    out = {}
    for key, series in result.cloudwatch._series.items():
        out[key] = (
            series.times.tolist(),
            [repr(v) for v in series.values.tolist()],
        )
    return out


def _costs(result):
    return [(name, repr(meter.total_cost)) for name, meter in sorted(result.cost_meters.items())]


def _snapshots(result):
    return [
        (snap.time, sorted((k, repr(v)) for k, v in snap.values.items()))
        for snap in result.collector.snapshots
    ]


def _decisions(result):
    out = []
    if result.recorder is None:
        return out
    for d in result.recorder.decisions:
        out.append(repr(d))
    return out


def _event_multiset(result):
    """Events keyed by timestamp, order-insensitive within a second."""
    if result.recorder is None:
        return []
    rows = [
        (e.time, e.layer, e.kind, tuple(sorted((k, repr(v)) for k, v in e.payload.items())))
        for e in result.recorder.bus
    ]
    return sorted(rows)


def assert_equivalent(reference, spanned, events: bool = False):
    assert spanned.dropped_records == reference.dropped_records
    assert spanned.dropped_writes == reference.dropped_writes
    assert _raw_metrics(spanned) == _raw_metrics(reference)
    assert _costs(spanned) == _costs(reference)
    assert _snapshots(spanned) == _snapshots(reference)
    if events:
        assert _event_multiset(spanned) == _event_multiset(reference)
        assert _decisions(spanned) == _decisions(reference)


def run_pair(make_builder, horizon, events: bool = False):
    """Build + run the flow with spans off and on; return both results."""
    results = []
    for spans in (False, True):
        builder = make_builder().spans(spans)
        if events:
            builder = builder.observe()
        results.append(builder.build().run(horizon))
    return results


class TestControlledFlowEquivalence:
    def test_adaptive_control_with_scaling_events(self):
        """Reshards, DDB updates, EC2 warm-ups and flushes inside spans."""

        def build():
            return (
                FlowBuilder("span-eq", seed=11)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1500, amplitude=1100, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
            )

        reference, spanned = run_pair(build, 1200)
        assert_equivalent(reference, spanned)
        # The scenario must actually scale, or it proves nothing about
        # capacity events landing mid-span.
        for kind in (LayerKind.INGESTION, LayerKind.ANALYTICS, LayerKind.STORAGE):
            cap = spanned.capacity_trace(kind, period=60).values
            assert min(cap) < max(cap), f"{kind} never scaled"

    def test_randomized_seeds_and_periods(self):
        """Property-style sweep: random seeds, periods, shapes."""
        rng = random.Random(0xF10E)
        for _ in range(4):
            seed = rng.randrange(10_000)
            period = rng.choice([20, 30, 60])
            mean = rng.randrange(600, 2200)
            amplitude = rng.randrange(200, mean)

            def build():
                return (
                    FlowBuilder("span-eq-rand", seed=seed)
                    .ingestion(shards=2)
                    .analytics(vms=2)
                    .storage(write_units=250)
                    .workload(SinusoidalRate(mean=mean, amplitude=amplitude, period=420))
                    .control_all(style="adaptive", reference=60.0, period=period)
                )

            reference, spanned = run_pair(build, 900)
            assert_equivalent(reference, spanned)

    def test_topology_rebalance_inside_span(self):
        """VM-count changes trigger rebalance windows; spans must clamp."""
        topology = TopologyConfig(
            bolts=(
                BoltSpec("parse", records_per_executor_per_second=500, executors=4),
                BoltSpec("aggregate", records_per_executor_per_second=250, executors=4),
            ),
            executor_slots_per_vm=4,
            rebalance_seconds=25,
        )

        def build():
            return (
                FlowBuilder("span-eq-topo", seed=3)
                .ingestion(shards=3)
                .analytics(vms=2, topology=topology)
                .storage(write_units=300)
                .workload(StepRate(base=700, level=2400, at=240))
                .control_all(style="adaptive", reference=60.0, period=30)
            )

        reference, spanned = run_pair(build, 900, events=True)
        assert_equivalent(reference, spanned, events=True)
        rebalances = spanned.recorder.bus.of_kind("rebalance")
        assert rebalances, "scenario never rebalanced"

    def test_read_workload_and_read_control(self):
        def build():
            return (
                FlowBuilder("span-eq-reads", seed=21)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=280)
                .workload(SinusoidalRate(mean=1200, amplitude=700, period=500))
                .control_all(style="adaptive", reference=60.0, period=30)
                .reads(
                    StepRate(base=40, level=260, at=300),
                    read_units=100,
                    style="adaptive",
                    reference=60.0,
                    period=30,
                )
            )

        reference, spanned = run_pair(build, 900)
        assert_equivalent(reference, spanned)

    def test_max_backlog_crossing_inside_span(self, monkeypatch):
        """Drop accounting when the backlog clamps mid-span."""
        monkeypatch.setattr(_FlowPipeline, "MAX_BACKLOG", 25_000)

        def build():
            # Static under-provisioned flow: no control boundaries, so
            # the clamp must happen inside long spans.
            return (
                FlowBuilder("span-eq-drop", seed=5)
                .ingestion(shards=1)
                .analytics(vms=1)
                .storage(write_units=40)
                .workload(ConstantRate(4000))
            )

        reference, spanned = run_pair(build, 300)
        assert_equivalent(reference, spanned)
        assert spanned.dropped_records > 0, "backlog never crossed the cap"

    def test_coarse_tick_flow(self):
        def build():
            return (
                FlowBuilder("span-eq-tick", seed=9)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1400, amplitude=800, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
                .tick(5)
            )

        reference, spanned = run_pair(build, 1500)
        assert_equivalent(reference, spanned)


def _log_stretches(monkeypatch):
    """Record every stretch ``run_span`` runs: (span start, kind, stop
    asked for, stop reached). A span's kinds, in order, show which
    stretches executed it."""
    calls = []
    vector = _FlowPipeline._vector_stretch
    scalar = _FlowPipeline._scalar_stretch

    def logged_vector(self, span, start, stop):
        reached, columns = vector(self, span, start, stop)
        calls.append((span.now, "vector", stop, reached))
        return reached, columns

    def logged_scalar(self, span, start):
        reached, columns = scalar(self, span, start)
        calls.append((span.now, "scalar", span.count, reached))
        return reached, columns

    monkeypatch.setattr(_FlowPipeline, "_vector_stretch", logged_vector)
    monkeypatch.setattr(_FlowPipeline, "_scalar_stretch", logged_scalar)
    return calls


def _kinds_by_span(calls):
    spans: dict[int, list[str]] = {}
    for now, kind, _stop, _reached in calls:
        spans.setdefault(now, []).append(kind)
    return spans


class TestSpanStretches:
    """Single flows run both stretches of ``run_span``, bit-exactly.

    Uncontrolled flows with a 600 s snapshot period give spans long
    enough to hold several stretches; every case checks span ≡ tick
    and that the stretches it targets actually ran.
    """

    @staticmethod
    def _pair(make_manager, horizon):
        results = []
        for spans in (False, True):
            manager = make_manager(spans)
            results.append(manager.run(horizon))
        return results

    def test_kinesis_burst_goes_vector_scalar_vector(self, monkeypatch):
        """A flash crowd throttles one shard mid-span; the producer
        backlog drains and the same span returns to the vector path."""
        calls = _log_stretches(monkeypatch)

        def build(spans):
            return FlowElasticityManager(
                workload=ConstantRate(600)
                + FlashCrowdRate(peak=2500, at=200, rise_seconds=5, decay_seconds=15),
                capacities=ServiceCapacities(shards=1, vms=2, write_units=300),
                seed=13,
                snapshot_period=600,
                span_execution=spans,
            )

        reference, spanned = self._pair(build, 1200)
        assert_equivalent(reference, spanned)
        assert spanned.throttle_trace(LayerKind.INGESTION).values, "never throttled"
        assert max(spanned.throttle_trace(LayerKind.INGESTION).values) > 0
        assert ["vector", "scalar", "vector"] in _kinds_by_span(calls).values()

    def test_flush_overflows_into_write_backlog_in_vector_stretch(self, monkeypatch):
        """With no burst credit, a window flush's writes exceed the
        table's per-tick capacity: the vector stretch ends on that flush
        tick and a scalar stretch retries the write backlog."""
        calls = _log_stretches(monkeypatch)

        def build(spans):
            return FlowElasticityManager(
                workload=ConstantRate(800),
                capacities=ServiceCapacities(shards=2, vms=2, write_units=300),
                dynamodb=DynamoDBConfig(burst_seconds=0),
                seed=17,
                snapshot_period=600,
                span_execution=spans,
            )

        reference, spanned = self._pair(build, 1200)
        assert_equivalent(reference, spanned)
        assert max(spanned.throttle_trace(LayerKind.STORAGE).values) > 0
        cut_short = [c for c in calls if c[1] == "vector" and c[3] < c[2]]
        assert cut_short, "no flush overflowed inside a vector stretch"
        kinds = _kinds_by_span(calls)
        assert any(k[:2] == ["vector", "scalar"] for k in kinds.values())

    def test_dashboard_reads_above_read_capacity(self, monkeypatch):
        """A read surge drains the read burst bucket the vector stretch
        banked (below its cap, so the banked amount matters) and then
        throttles; reads leave the write path drained, so the span goes
        back to the vector path once the surge has passed."""
        calls = _log_stretches(monkeypatch)

        def build(spans):
            return FlowElasticityManager(
                workload=ConstantRate(700),
                capacities=ServiceCapacities(shards=2, vms=2, write_units=300, read_units=100),
                read_workload=ConstantRate(30)
                + FlashCrowdRate(peak=1500, at=250, rise_seconds=5, decay_seconds=20),
                seed=19,
                snapshot_period=600,
                span_execution=spans,
            )

        reference, spanned = self._pair(build, 1200)
        assert_equivalent(reference, spanned)
        read_throttles = spanned.trace(
            "AWS/DynamoDB", "ReadThrottleEvents", statistic="Sum",
            dimensions=spanned.layer_dimensions[LayerKind.STORAGE],
        )
        assert max(read_throttles.values) > 0, "reads never exceeded the bucket"
        assert ["vector", "scalar", "vector"] in _kinds_by_span(calls).values()


#: One scenario per fault kind, sized so the fault actually bites.
CHAOS_SCENARIOS = {
    "reshard-stall": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.RESHARD_STALL, start=120, duration=400, intensity=4),
    ), seed=1),
    "shard-brownout": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=200, duration=300, intensity=0.5),
    ), seed=2),
    "worker-crash": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.WORKER_CRASH, start=300, intensity=1),
    ), seed=3),
    "rebalance-fail": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.REBALANCE_FAIL, start=240, duration=90),
    ), seed=4),
    "throttle-storm": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.THROTTLE_STORM, start=180, duration=300, intensity=0.6),
    ), seed=5),
    "update-reject": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.UPDATE_REJECT, start=120, duration=300),
    ), seed=6),
    "metric-delay": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.METRIC_DELAY, start=180, duration=240, intensity=120),
    ), seed=7),
    "metric-dropout": ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.METRIC_DROPOUT, start=180, duration=240),
    ), seed=8),
}


class TestChaosEquivalence:
    """Span-vs-tick bit-equivalence under every chaos fault kind.

    The injector bounds spans at each transition's due tick and clamps
    the tick after a worker crash, so fault effects must land at the
    exact same ticks in both modes — including retry/backoff decisions,
    degraded-sensor events, and the invariant checker's audit."""

    @staticmethod
    def _build(schedule):
        def build():
            return (
                FlowBuilder("span-eq-chaos", seed=11)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1400, amplitude=800, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
                .chaos(schedule)
            )

        return build

    @pytest.mark.parametrize("kind", sorted(CHAOS_SCENARIOS))
    def test_single_fault_scenarios(self, kind):
        schedule = CHAOS_SCENARIOS[kind]
        reference, spanned = run_pair(self._build(schedule), 900, events=True)
        assert_equivalent(reference, spanned, events=True)
        # The fault actually fired, identically in both modes.
        assert reference.chaos_events
        assert spanned.chaos_events == reference.chaos_events
        assert any(e.fault == kind for e in spanned.chaos_events)
        # The always-on checker audited both runs cleanly.
        assert reference.invariants.ok and spanned.invariants.ok

    def test_combined_multi_layer_scenario(self):
        schedule = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=150, duration=300, intensity=0.5),
            FaultSpec(kind=FaultKind.RESHARD_STALL, start=500, duration=200, intensity=3),
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=400, intensity=1),
            FaultSpec(kind=FaultKind.REBALANCE_FAIL, start=700, duration=90),
            FaultSpec(kind=FaultKind.THROTTLE_STORM, start=300, duration=240, intensity=0.6),
            FaultSpec(kind=FaultKind.UPDATE_REJECT, start=600, duration=240),
            FaultSpec(kind=FaultKind.METRIC_DELAY, start=100, duration=150, intensity=90),
            FaultSpec(kind=FaultKind.METRIC_DROPOUT, start=850, duration=100),
        ), seed=42)
        reference, spanned = run_pair(self._build(schedule), 1200, events=True)
        assert_equivalent(reference, spanned, events=True)
        assert spanned.chaos_events == reference.chaos_events
        injected = {e.fault for e in spanned.chaos_events if e.phase == "inject"}
        assert injected == {k.value for k in FaultKind}


class TestFleetEquivalence:
    """Span-vs-tick bit-equivalence for a multi-flow region run.

    The multi-flow hazards on top of the single-flow ones: the shared
    EC2 pool's contention factor (a pure function of *all* flows'
    committed instances, hoisted per span), region admission denials
    landing at the exact same control boundaries in both modes, and the
    coordinator's grants being identical — one flow's chaos or scaling
    must perturb its neighbors from exactly the same tick either way.
    """

    @staticmethod
    def _fleet(span_execution, coordinate, chaos=False):
        from repro.chaos import ChaosSchedule as Schedule
        from repro.cloud.region import RegionLimits
        from repro.cloud.storm import StormConfig
        from repro.core.config import LayerControlConfig, default_adaptive_controller
        from repro.core.fleet import FleetFlowSpec, RegionFleetManager

        def controls():
            return {
                kind: LayerControlConfig(
                    controller=default_adaptive_controller(kind), period=30
                )
                for kind in LayerKind
            }

        flows = []
        for i in range(2):
            schedule = None
            if chaos and i == 0:
                schedule = Schedule(
                    faults=(
                        FaultSpec(kind=FaultKind.WORKER_CRASH, start=400, intensity=1),
                        FaultSpec(kind=FaultKind.THROTTLE_STORM, start=600,
                                  duration=200, intensity=0.6),
                    ),
                    seed=13,
                )
            flows.append(
                FleetFlowSpec(
                    name=f"flow{i}",
                    workload=SinusoidalRate(
                        mean=1500 + 500 * i, amplitude=1000, period=900
                    ),
                    controls=controls(),
                    # Overcommitted: both flows believe they may take
                    # nearly the whole account, so one of them hits the
                    # account limit mid-run and is denied.
                    share_bounds={
                        LayerKind.INGESTION: 5,
                        LayerKind.ANALYTICS: 5,
                        LayerKind.STORAGE: 800,
                    },
                    storm=StormConfig(records_per_vm_per_second=700),
                    chaos=schedule,
                )
            )
        return RegionFleetManager(
            flows,
            limits=RegionLimits(
                max_instances=6,
                max_total_shards=7,
                max_total_write_units=1200,
                # A low threshold so the shared pool is contended for
                # most of the run, exercising the span-hoisted factor.
                contention_threshold=0.5,
                contention_slope=0.4,
            ),
            seed=11,
            span_execution=span_execution,
            coordinate_period=300 if coordinate else None,
        )

    def _run_fleet_pair(self, coordinate, chaos=False):
        results = []
        for spans in (False, True):
            fleet = self._fleet(spans, coordinate, chaos)
            results.append((fleet, fleet.run(1200)))
        (ref_fleet, reference), (span_fleet, spanned) = results
        assert not ref_fleet.engine.last_run_used_spans
        assert span_fleet.engine.last_run_used_spans
        return reference, spanned

    @pytest.mark.parametrize("coordinate", [False, True])
    def test_two_flow_region_bit_identical(self, coordinate):
        reference, spanned = self._run_fleet_pair(coordinate)
        assert sorted(reference.flows) == sorted(spanned.flows)
        denied = reference.region.total_denials()
        assert denied > 0, "scenario must actually hit the account limit"
        for flow_id in reference.flows:
            assert_equivalent(reference.flows[flow_id], spanned.flows[flow_id])
            assert reference.flows[flow_id].invariants.ok
            assert spanned.flows[flow_id].invariants.ok
        # Region accounting and denial history identical tick-for-tick.
        assert spanned.region.denial_counts == reference.region.denial_counts
        if coordinate:
            assert spanned.coordinator.records == reference.coordinator.records

    def test_cross_flow_chaos_visibility(self):
        """Flow0's worker crash changes the shared pool, hence flow1's
        contention factor — from exactly the same tick in both modes."""
        reference, spanned = self._run_fleet_pair(coordinate=True, chaos=True)
        assert reference.flows["flow0"].chaos_events
        assert (
            spanned.flows["flow0"].chaos_events
            == reference.flows["flow0"].chaos_events
        )
        for flow_id in reference.flows:
            assert_equivalent(reference.flows[flow_id], spanned.flows[flow_id])
