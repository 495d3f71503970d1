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
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosSchedule, FaultKind, FaultSpec
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.ec2 import EC2Config
from repro.cloud.storm import BoltSpec, StormConfig, TopologyConfig
from repro.core.builder import FlowBuilder
from repro.core.flow import LayerKind
from repro.core.manager import FlowElasticityManager, ServiceCapacities, _FlowPipeline, _Span
from repro.workload.clickstream import ClickStreamConfig
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

    def test_table_update_ripe_at_span_start_keeps_a_later_one(self, monkeypatch):
        """A write update ripe at a span's first tick must not hide a
        read update that ripens later in the same span: the span that
        hoists the write update ends before the read update's tick (one
        that hid it ran the old read capacity, 100, to t=400)."""
        spans_run = []
        run_span = _FlowPipeline.run_span

        def logged(pipeline, clock, span_end):
            spans_run.append((clock.now, span_end))
            run_span(pipeline, clock, span_end)

        def run(spans):
            manager = (
                FlowBuilder("span-eq-late-read", seed=4)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(ConstantRate(1200))
                .reads(ConstantRate(150), read_units=100)
                .spans(spans)
                .build()
            )
            manager.run(100)
            manager.table.writes.update(400, 100)  # ripe at 130
            manager.run(10)
            manager.table.reads.update(200, 110)  # ripe at 140
            spans_run.clear()
            return manager.run(290)

        reference = run(False)
        monkeypatch.setattr(_FlowPipeline, "run_span", logged)
        spanned = run(True)
        assert_equivalent(reference, spanned)
        assert spans_run == [(110, 129), (129, 139), (139, 400)]
        (times, values), = (
            series for (_, metric, _), series in _raw_metrics(spanned).items()
            if metric == "ProvisionedReadCapacityUnits"
        )
        assert dict(zip(times, values))[140] == "200.0"

    def test_boot_at_span_start_is_hoisted(self, monkeypatch):
        """Without a topology a VM boot changes nothing but the running
        count, which the span's capacity hoist reads: a boot ripe at a
        span's first tick starts a long span, not a one-tick one. Boots
        take 45 s under a 60 s loop, so each ripens mid-period."""
        boot_spans = []
        run_span = _FlowPipeline.run_span

        def logged(pipeline, clock, span_end):
            boot = pipeline.cluster.fleet.next_capacity_event(clock.now)
            if boot is not None and boot <= clock.now + clock.tick_seconds:
                boot_spans.append((span_end - clock.now) // clock.tick_seconds)
            run_span(pipeline, clock, span_end)

        def build():
            return (
                FlowBuilder("span-eq-boot", seed=11)
                .ingestion(shards=3)
                .analytics(vms=1, storm=StormConfig(records_per_vm_per_second=1000),
                           ec2=EC2Config(boot_seconds=45))
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1500, amplitude=1100, period=600))
                .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0, period=60)
            )

        reference = build().spans(False).build().run(1800)
        monkeypatch.setattr(_FlowPipeline, "run_span", logged)
        spanned = build().build().run(1800)
        assert_equivalent(reference, spanned)
        # Launched at a control step, ripe 45 s later: 16 ticks remain
        # to the next step.
        assert boot_spans and set(boot_spans) == {16}, boot_spans

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

    def test_alternating_modes_match_one_per_tick_run(self):
        """run_span and on_tick read dashboard reads from one drawn
        block: four 900 s runs alternating span and per-tick execution
        must give exactly one uninterrupted per-tick run. The read rate
        floors at zero for part of each cycle, and the runs cross read
        blocks in both modes."""

        def build():
            return (
                FlowBuilder("mode-switch-reads", seed=27)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1200, amplitude=600, period=1500))
                .control_all(style="adaptive", reference=60.0, period=60)
                .reads(SinusoidalRate(mean=40, amplitude=80, period=1800), read_units=60)
            )

        reference = build().spans(False).build().run(3600)
        manager = build().build()
        for leg in range(4):
            manager.engine.span_execution = leg % 2 == 0
            switched = manager.run(900)
        assert switched.duration_seconds == 3600
        assert_equivalent(reference, switched)

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

    def test_storm_window_state_is_the_same_in_both_modes(self):
        """With a distinct estimator the cluster derives a window's
        writes from its record count, so neither mode folds per-tick
        distinct pages into the open window. 605 s ends 5 s into one."""
        clusters = []
        for spans in (False, True):
            manager = FlowBuilder("wk", seed=3).workload(ConstantRate(900)).spans(spans).build()
            manager.run(605)
            clusters.append(manager.cluster)
        ticked, spanned = clusters
        assert ticked._window_elapsed == 5
        for state in ("_window_keys", "_window_records", "_window_elapsed"):
            assert getattr(spanned, state) == getattr(ticked, state), state


def _kind(saturated, producer):
    """The closed form a plan runs: throttled with a producer stage,
    else saturated or vector by Storm's regime."""
    return "throttled" if producer is not None else "saturated" if saturated else "vector"


def _log_stretches(monkeypatch, asked=None):
    """Record every stretch ``run_span`` runs: (span start, kind, stop
    asked for, stop reached). A span's kinds, in order, show which
    stretches executed it. Given a list ``asked``, also append to it
    every question ``_Span.closed_form_run`` is asked: (span start, its
    arguments)."""
    calls = []
    closed_form = _FlowPipeline._closed_form
    scalar = _FlowPipeline._scalar_stretch

    def logged_closed_form(self, span, start, stop, saturated, producer):
        reached, columns = closed_form(self, span, start, stop, saturated, producer)
        calls.append((span.now, _kind(saturated, producer), stop, reached))
        return reached, columns

    # A scalar stretch is asked for the rest of the span.
    def logged_scalar(self, span, start):
        result = scalar(self, span, start)
        calls.append((span.now, "scalar", span.count, result[0]))
        return result

    monkeypatch.setattr(_FlowPipeline, "_closed_form", logged_closed_form)
    monkeypatch.setattr(_FlowPipeline, "_scalar_stretch", logged_scalar)
    if asked is not None:
        question = _Span.closed_form_run

        def logged_question(span, *args):
            asked.append((span.now, *args))
            return question(span, *args)

        monkeypatch.setattr(_Span, "closed_form_run", logged_question)
    return calls


def _kinds_by_span(calls):
    spans: dict[int, list[str]] = {}
    for now, kind, _stop, _reached in calls:
        spans.setdefault(now, []).append(kind)
    return spans


def _closed_form_exits(monkeypatch):
    """Record why each closed-form stretch stopped, by kind, judged
    independently of the run test from the state it leaves and the next
    tick's draws (:func:`_closed_form_exit`); a stop that breaks nothing
    fails the run."""
    exits = {"vector": [], "saturated": [], "throttled": []}
    method = _FlowPipeline._closed_form

    def judged(self, span, start, stop, saturated, producer):
        reached, columns = method(self, span, start, stop, saturated, producer)
        kind = _kind(saturated, producer)
        why = _closed_form_exit(self, span, stop, reached, saturated, producer is not None)
        assert why != "unexplained", (
            f"a {kind} stretch from span index {start} stopped at {reached} "
            "where the next tick breaks none of its regime's exits"
        )
        exits[kind].append(why)
        return reached, columns

    monkeypatch.setattr(_FlowPipeline, "_closed_form", judged)
    return exits


def _closed_form_exit(pipeline, span, stop, reached, saturated, throttled):
    """Why a closed-form stretch stopped at span index ``reached``:
    ``overflow`` (a flush overflowed the write bucket), ``span-end``, or
    the first exit of its regime the next tick takes. The inflow's:
    ``write-cap`` (the draws exceed a Kinesis write cap), or, throttled,
    ``two-caps`` (the producer backlog opens under two record caps),
    ``max-backlog`` (it would close above ``MAX_BACKLOG``) and
    ``byte-cap`` (the byte cap binds); then ``read-cap`` (the reads
    exceed the read capacity). Storm's: drained, ``drained-limit`` (the
    inflow exceeds ``min(stream_read_cap, poll_limit, analytics_cap)``);
    saturated, ``short-poll`` (the poll would come up short, or the
    queue is above ``poll_limit``). Else ``unexplained``."""
    if reached < stop:
        return "overflow"
    if reached == span.count:
        return "span-end"
    records = span.records[reached]
    payload = span.payload[reached]
    cap = span.record_cap
    inflow = records
    if throttled:
        backlog = pipeline._producer_backlog_records
        if backlog < 2 * cap:
            return "two-caps"
        offered = records + 2 * cap
        inflow = int(offered * (cap / offered))
        if backlog + records - inflow > pipeline.MAX_BACKLOG:
            return "max-backlog"
        offered_bytes = payload + int(pipeline._producer_backlog_bytes * 2 * cap / backlog)
        if offered_bytes and span.byte_cap / offered_bytes < cap / offered:
            return "byte-cap"
    elif records > cap or payload > span.byte_cap:
        return "write-cap"
    if span.reads is not None and span.reads[reached] > span.read_cap:
        return "read-cap"
    if not saturated:
        if inflow > min(span.stream_read_cap, span.poll_limit, span.analytics_cap):
            return "drained-limit"
        return "unexplained"
    pending = pipeline.cluster._pending_records
    poll = span.poll_limit - pending
    if poll < 0 or pipeline.stream._buffer_records + inflow < poll:
        return "short-poll"
    return "unexplained"


def _pending_at(result):
    """Storm's pending tuples at each tick."""
    pending = result.throttle_trace(LayerKind.ANALYTICS, period=1)
    return dict(zip(pending.times, pending.values))


def _every(period, manager):
    """``manager`` with an engine task that does nothing every
    ``period`` seconds, so a span ends at each multiple of ``period``."""
    manager.engine.every(period, lambda now: None, name="span-boundary")
    return manager


class TestSpanStretches:
    """Single flows run every stretch of ``run_span``, bit-exactly.

    Uncontrolled flows register no engine task, so a span runs to the
    horizon or the next capacity event and holds several stretches;
    every case checks span ≡ tick and that the stretches it targets
    actually ran, and the exit oracle judges every closed-form stop.
    """

    @pytest.fixture(autouse=True)
    def closed_form_exits(self, monkeypatch):
        return _closed_form_exits(monkeypatch)

    @staticmethod
    def _pair(make_manager, horizon):
        results = []
        for spans in (False, True):
            manager = make_manager(spans)
            results.append(manager.run(horizon))
        return results

    def test_kinesis_burst_goes_vector_scalar_vector(self, monkeypatch):
        """A flash crowd throttles one shard mid-span: the producer
        backlog builds under a scalar stretch, a throttled stretch runs
        while it is two record caps or more, the scalar stretch retries
        the last of it, and the same span returns to the vector path.
        Each scalar stretch hands over the plan it found, so no span
        asks the closed-form run test the same question twice in a
        row."""
        asked = []
        calls = _log_stretches(monkeypatch, asked)

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
        assert ["vector", "scalar", "throttled", "scalar", "vector"] in _kinds_by_span(
            calls
        ).values()
        assert not [a for a, b in zip(asked, asked[1:]) if a == b], "a question was asked twice"

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

    def test_saturated_scalar_saturated_across_a_lull(self, monkeypatch):
        """Storm processes 800 records/s against 1200 arriving, so the
        stream backlogs under a saturated stretch. A 100 s lull drains
        the buffer: a scalar stretch takes over before it would go
        negative, and the same span hands back once load returns."""
        calls = _log_stretches(monkeypatch)

        def build(spans):
            return FlowElasticityManager(
                workload=StepRate(base=1200, level=0, at=200, until=300),
                capacities=ServiceCapacities(shards=2, vms=2, write_units=300),
                storm=StormConfig(records_per_vm_per_second=400),
                seed=23,
                snapshot_period=600,
                span_execution=spans,
            )

        reference, spanned = self._pair(build, 1200)
        assert_equivalent(reference, spanned)
        assert ["saturated", "scalar", "saturated"] in _kinds_by_span(calls).values()

    def test_flush_overflows_into_write_backlog_in_saturated_stretch(self, monkeypatch):
        """With no burst credit and write capacity just above a flush's
        mean, an occasional flush overflows while Storm is saturated:
        the saturated stretch ends on that flush tick and a scalar
        stretch retries the write backlog."""
        calls = _log_stretches(monkeypatch)

        def build(spans):
            return FlowElasticityManager(
                workload=ConstantRate(1200),
                capacities=ServiceCapacities(shards=2, vms=2, write_units=520),
                storm=StormConfig(records_per_vm_per_second=400),
                dynamodb=DynamoDBConfig(burst_seconds=0),
                seed=29,
                snapshot_period=600,
                span_execution=spans,
            )

        reference, spanned = self._pair(build, 1200)
        assert_equivalent(reference, spanned)
        cut_short = [c for c in calls if c[1] == "saturated" and c[3] < c[2]]
        assert cut_short, "no flush overflowed inside a saturated stretch"
        throttle = spanned.throttle_trace(LayerKind.STORAGE, period=1)
        throttled = dict(zip(throttle.times, throttle.values))
        for now, _, _, reached in cut_short:
            assert throttled[now + reached] > 0, "the stretch ran past its overflow"

    def test_pending_above_poll_limit_keeps_span_scalar(self, monkeypatch):
        """Losing seven of eight VMs leaves Storm's queue above the new
        poll limit (1.5 x 200 records) at the next span's start. The
        poll then hands over nothing until the queue drains, which the
        saturated closed form does not model, so that span stays scalar
        and the next one is saturated again. With a span boundary every
        20 s that span is 20 ticks: long enough for a closed form at its
        start, too short for one at its first window boundary, 10 ticks
        in."""
        calls = _log_stretches(monkeypatch)
        crash = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=280, intensity=7),
        ), seed=3)

        def build(spans):
            return FlowElasticityManager(
                workload=ConstantRate(2000),
                capacities=ServiceCapacities(shards=4, vms=8, write_units=1000),
                storm=StormConfig(records_per_vm_per_second=200),
                chaos=crash,
                seed=31,
                span_execution=spans,
            )

        reference, spanned = self._pair(lambda spans: _every(20, build(spans)), 600)
        assert_equivalent(reference, spanned)
        pending = spanned.throttle_trace(LayerKind.ANALYTICS, period=1)
        # The crash lands at the boundary at 280; the next span starts there.
        assert dict(zip(pending.times, pending.values))[281] > 1.5 * 200
        kinds = _kinds_by_span(calls)
        assert kinds[240] == ["saturated"]
        assert kinds[280] == ["scalar"]
        assert kinds[320] == ["saturated"]

    def test_capacity_update_splits_a_period_into_two_vector_spans(self, monkeypatch):
        """A storage step every 60 s orders a write-capacity update that
        lands 30 s later, so each period runs as a 29-tick span up to the
        update and a 31-tick span from it. Both are long enough for a
        closed form, so each runs as one vector stretch."""
        calls = _log_stretches(monkeypatch)

        def build(spans):
            manager = FlowElasticityManager(
                workload=ConstantRate(800),
                capacities=ServiceCapacities(shards=2, vms=2, write_units=300),
                seed=37,
                snapshot_period=600,
                span_execution=spans,
            )
            table = manager.table
            manager.engine.every(
                60, lambda now: table.writes.update(300 + 10 * (now // 60 % 2), now),
                name="storage-step",
            )
            return manager

        reference, spanned = self._pair(build, 1200)
        assert_equivalent(reference, spanned)
        capacity = spanned.capacity_trace(LayerKind.STORAGE, period=1)
        assert {300.0, 310.0} <= set(capacity.values)
        kinds = _kinds_by_span(calls)
        lengths = {now: stop for now, _kind, stop, _reached in calls}
        for period in range(60, 1200, 60):
            assert lengths[period] == 29 and lengths[period + 29] == 31
            assert kinds[period] == kinds[period + 29] == ["vector"]

    @staticmethod
    def _throttled_flow(spans, workload=None, storm=None, clickstream=None, dynamodb=None,
                        write_units=300, seed=41):
        """One shard (1000 records/s) under 1500 records/s by default:
        the producer backlog grows past two record caps within a
        window."""
        return FlowElasticityManager(
            workload=workload or ConstantRate(1500),
            capacities=ServiceCapacities(shards=1, vms=2, write_units=write_units),
            storm=storm,
            clickstream=clickstream,
            dynamodb=dynamodb,
            seed=seed,
            snapshot_period=600,
            span_execution=spans,
        )

    def test_throttled_stretch_with_storm_drained(self, monkeypatch):
        """1500 records/s against one shard: after the first window
        the producer re-offers two record caps every tick, Kinesis
        passes 1000 records/s and Storm (16,000/s) drains them."""
        calls = _log_stretches(monkeypatch)
        reference, spanned = self._pair(
            lambda spans: _every(600, self._throttled_flow(spans)), 1200
        )
        assert_equivalent(reference, spanned)
        assert _kinds_by_span(calls) == {0: ["scalar", "throttled"], 600: ["throttled"]}
        pending = _pending_at(spanned)
        assert all(pending[t] == 0 for t in range(11, 1201))

    def test_throttled_stretch_with_storm_saturated(self, monkeypatch):
        """The same throttled producer over an 800 records/s Storm: the
        stream buffers what Kinesis passes and Storm runs at capacity."""
        calls = _log_stretches(monkeypatch)
        reference, spanned = self._pair(
            lambda spans: _every(600, self._throttled_flow(
                spans, storm=StormConfig(records_per_vm_per_second=400), seed=43
            )),
            1200,
        )
        assert_equivalent(reference, spanned)
        assert _kinds_by_span(calls) == {0: ["scalar", "throttled"], 600: ["throttled"]}
        pending = _pending_at(spanned)
        assert all(pending[t] == 1.5 * 800 - 800 for t in range(11, 1201))

    def test_throttled_run_ends_under_two_record_caps(self, monkeypatch, closed_form_exits):
        """A 150 s surge builds the backlog; once the load falls it
        drains by about 500 records a tick. The throttled run ends where
        the backlog would open under two record caps, a scalar stretch
        retries the rest, and the span goes back to the vector path."""
        calls = _log_stretches(monkeypatch)
        exits = closed_form_exits["throttled"]
        reference, spanned = self._pair(
            lambda spans: self._throttled_flow(
                spans, workload=StepRate(base=500, level=1500, at=100, until=250), seed=47
            ),
            1200,
        )
        assert_equivalent(reference, spanned)
        assert _kinds_by_span(calls)[0] == ["vector", "scalar", "throttled", "scalar", "vector"]
        assert exits == ["two-caps"]

    def test_throttled_run_ends_before_max_backlog(self, monkeypatch, closed_form_exits):
        """With the backlog capped at 25,000 records the throttled run
        ends on the tick before the cap would be passed; the scalar
        stretch drops what overflows."""
        monkeypatch.setattr(_FlowPipeline, "MAX_BACKLOG", 25_000)
        calls = _log_stretches(monkeypatch)
        exits = closed_form_exits["throttled"]
        reference, spanned = self._pair(
            lambda spans: self._throttled_flow(spans, seed=53), 1200
        )
        assert_equivalent(reference, spanned)
        assert spanned.dropped_records > 0
        assert _kinds_by_span(calls)[0] == ["scalar", "throttled", "scalar"]
        assert exits == ["max-backlog"]

    def test_throttled_run_ends_at_byte_bound_tick(self, monkeypatch, closed_form_exits):
        """1040-byte records sit near the shard's 1048-byte-per-record
        boundary: on some ticks the retried bytes make the byte cap
        bind first, which ends the throttled run there."""
        calls = _log_stretches(monkeypatch)
        exits = closed_form_exits["throttled"]
        reference, spanned = self._pair(
            lambda spans: self._throttled_flow(
                spans, clickstream=ClickStreamConfig(mean_record_bytes=1040), seed=59
            ),
            1200,
        )
        assert_equivalent(reference, spanned)
        assert any(
            kinds[:3] == ["scalar", "throttled", "scalar"] for kinds in _kinds_by_span(calls).values()
        )
        assert exits.count("byte-cap") >= 5
        assert set(exits) <= {"byte-cap", "span-end"}

    def test_flush_overflows_into_write_backlog_in_throttled_stretch(self, monkeypatch, closed_form_exits):
        """With no burst credit and write capacity near a flush's
        writes, a flush overflows inside the throttled stretch: it ends
        on that flush tick and a scalar stretch retries the writes."""
        calls = _log_stretches(monkeypatch)
        exits = closed_form_exits["throttled"]
        reference, spanned = self._pair(
            lambda spans: self._throttled_flow(
                spans, dynamodb=DynamoDBConfig(burst_seconds=0), write_units=470, seed=61
            ),
            1200,
        )
        assert_equivalent(reference, spanned)
        cut_short = [c for c in calls if c[1] == "throttled" and c[3] < c[2]]
        assert cut_short, "no flush overflowed inside a throttled stretch"
        assert "overflow" in exits
        throttle = spanned.throttle_trace(LayerKind.STORAGE, period=1)
        throttled = dict(zip(throttle.times, throttle.values))
        for now, _, _, reached in cut_short:
            assert throttled[now + reached] > 0, "the stretch ran past its overflow"


@st.composite
def _span_questions(draw):
    """A bare :class:`_Span` (its columns and capacities) and the
    ``closed_form_run`` questions to ask it, in span order. Half the
    spans keep every column within its drained limit and cap, so the
    early exit decides; a spoiled tick then may push one column past
    its limit by one, so the masks must find the run's end."""
    count = draw(st.integers(16, 80))
    analytics_cap = draw(st.integers(0, 50))
    fields = dict(
        count=count,
        record_cap=draw(st.integers(0, 60)),
        byte_cap=draw(st.integers(0, 3000)),
        stream_read_cap=draw(st.integers(0, 120)),
        analytics_cap=analytics_cap,
        poll_limit=int(analytics_cap * draw(st.sampled_from([1.0, 1.5, 2.0]))),
        read_cap=draw(st.integers(0, 30)),
        max_backlog=draw(st.sampled_from([400, 5_000_000])),
    )
    fields["drained_limit"] = min(
        fields["stream_read_cap"], fields["poll_limit"], fields["analytics_cap"]
    )
    limits = {
        "records": min(fields["drained_limit"], fields["record_cap"]),
        "payload": fields["byte_cap"],
        "reads": fields["read_cap"],
    }
    clean = draw(st.booleans())
    has_reads = draw(st.booleans())
    for name, limit in limits.items():
        top = limit if clean else limit + 2
        fields[name] = draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
        if clean and draw(st.booleans()):
            fields[name][draw(st.integers(0, count - 1))] = limit + draw(st.integers(0, 1))
    if not has_reads:
        fields["reads"] = None
    starts = draw(st.lists(st.integers(0, count - 16), min_size=1, max_size=3, unique=True))
    questions = []
    for i in sorted(starts):
        # Mostly drained (no buffer, queue or producer backlog), where the early exit runs.
        buffer, pending = draw(st.sampled_from([(0, 0)] * 4 + [(5, 0), (0, 3), (40, 20)]))
        backlog = draw(st.sampled_from([0] * 4 + [2 * fields["record_cap"], 300]))
        questions.append((i, buffer, pending, backlog, 7 * backlog))
    return fields, questions


def _bare_span(fields):
    """A :class:`_Span` holding ``fields`` (lists copied) and nothing
    else: no pipeline, no draws, no memos."""
    span = _Span.__new__(_Span)
    for name in _Span.__slots__:
        setattr(span, name, None)
    for name, value in fields.items():
        setattr(span, name, list(value) if isinstance(value, list) else value)
    return span


def _plan(plan):
    """A plan with its producer arrays as lists, for comparison."""
    if plan is None:
        return None
    stop, saturated, producer = plan
    if producer is not None:
        producer = ([int(n) for n in producer[0]], list(producer[1]))
    return stop, saturated, producer


class TestDrainedEarlyExit:
    """The drained run test reads a run to the span's end off the
    columns' maxima before it builds any mask; that early exit must
    never change a plan."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(spec=_span_questions())
    def test_early_exit_keeps_every_plan(self, spec):
        fields, questions = spec
        with mock.patch.object(_Span, "_drains_to_end", lambda span, i: False):
            masked = _bare_span(fields)
            expected = [_plan(masked.closed_form_run(*q)) for q in questions]
        early = _bare_span(fields)
        assert [_plan(early.closed_form_run(*q)) for q in questions] == expected

    def test_columns_at_their_limits_build_no_mask(self):
        """Records at the drained limit, payload at the byte cap and
        reads at the read capacity are all within them: the run reaches
        the span's end and no mask is built."""
        count = 20
        span = _bare_span(dict(
            count=count, record_cap=50, byte_cap=900, stream_read_cap=40, analytics_cap=30,
            poll_limit=45, drained_limit=30, read_cap=12, max_backlog=5_000_000,
            records=[30] * count, payload=[900] * count, reads=[12] * count,
        ))
        assert span.closed_form_run(2, 0, 0, 0, 0) == (count, False, None)
        assert span._capped is None and span._violations is None
        span.reads[5] = 13
        assert span.closed_form_run(0, 0, 0, 0, 0) is None
        assert span._violations == [5]


@st.composite
def _saturated_questions(draw):
    """A bare :class:`_Span` whose records run near Storm's capacity,
    and ``closed_form_run`` questions from a buffer or a queue (with or
    without a producer backlog), in span order. Half the spans keep
    every column within its cap, so the inflow has no stop and the
    saturated early exit decides; whether the buffer falls short of a
    poll before the span's end is left to the draws."""
    count = draw(st.integers(16, 80))
    analytics_cap = draw(st.integers(1, 50))
    poll_limit = int(analytics_cap * draw(st.sampled_from([1.0, 1.5, 2.0])))
    record_cap = draw(st.integers(analytics_cap, 2 * analytics_cap + 10))
    fields = dict(
        count=count,
        record_cap=record_cap,
        byte_cap=draw(st.integers(0, 3000)),
        stream_read_cap=draw(st.integers(max(0, poll_limit - 2), 3 * poll_limit + 2)),
        analytics_cap=analytics_cap,
        poll_limit=poll_limit,
        read_cap=draw(st.integers(0, 30)),
        max_backlog=draw(st.sampled_from([400, 5_000_000])),
    )
    fields["drained_limit"] = min(fields["stream_read_cap"], poll_limit, analytics_cap)
    clean = draw(st.booleans())
    spread = draw(st.integers(0, analytics_cap))
    top = record_cap if clean else record_cap + 2
    fields["records"] = draw(st.lists(
        st.integers(max(0, analytics_cap - spread), min(top, analytics_cap + spread)),
        min_size=count, max_size=count,
    ))
    for name, limit in (("payload", fields["byte_cap"]), ("reads", fields["read_cap"])):
        fields[name] = draw(st.lists(st.integers(0, limit if clean else limit + 2),
                                     min_size=count, max_size=count))
    if not draw(st.booleans()):
        fields["reads"] = None
    starts = draw(st.lists(st.integers(0, count - 16), min_size=1, max_size=3, unique=True))
    questions = []
    for i in sorted(starts):
        buffer = draw(st.sampled_from([0, 1, analytics_cap, 5 * analytics_cap + 7]))
        pending = draw(st.sampled_from([0, 1, poll_limit]))
        if not (buffer or pending):
            buffer = 1
        backlog = draw(st.sampled_from([0] * 3 + [2 * record_cap, 2 * record_cap + 5, 300]))
        questions.append((i, buffer, pending, backlog, 7 * backlog))
    return fields, questions


class TestSaturatedEarlyExit:
    """The saturated run test reads a run to the span's end off the
    surplus tail's minimum and the inflow's stops before it builds the
    exit mask; that early exit must never change a plan."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(spec=_saturated_questions())
    def test_early_exit_keeps_every_plan(self, spec):
        fields, questions = spec
        with mock.patch.object(_Span, "_saturates_to_end", lambda *args: False):
            masked = _bare_span(fields)
            expected = [_plan(masked.closed_form_run(*q)) for q in questions]
        early = _bare_span(fields)
        assert [_plan(early.closed_form_run(*q)) for q in questions] == expected

    def test_run_to_the_span_end_builds_no_mask(self):
        """Records at the record cap, payload at the byte cap and reads
        at the read capacity stop nothing, and a surplus tail that stays
        at its floor keeps every poll whole: the saturated run reaches
        the span's end and the cap mask is never built."""
        count = 20
        span = _bare_span(dict(
            count=count, record_cap=40, byte_cap=900, stream_read_cap=60, analytics_cap=30,
            poll_limit=45, drained_limit=30, read_cap=12, max_backlog=5_000_000,
            records=[30] * count, payload=[900] * count, reads=[12] * count,
        ))
        # The floor is poll_limit - pending - cap - buffer = 0, the tail's
        # entries are all 0.
        assert span.closed_form_run(2, 15, 0, 0, 0) == (count, True, None)
        assert span._capped is None
        # One record short somewhere drains the buffer below the poll.
        span._surplus = None
        span._records = None
        span.records[9] = 29
        assert span.closed_form_run(2, 15, 0, 0, 0) is None
        assert span._capped is not None


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

    The injector bounds spans at each transition's due tick, so fault
    effects must land at the exact same ticks in both modes — including
    retry/backoff decisions, degraded-sensor events, and the invariant
    checker's audit."""

    @staticmethod
    def _build(schedule, reads=False):
        """The chaos flow; with ``reads``, a dashboard read workload and
        an adaptive read loop on the table's read dimension too."""

        def build():
            builder = (
                FlowBuilder("span-eq-chaos", seed=11)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(SinusoidalRate(mean=1400, amplitude=800, period=600))
                .control_all(style="adaptive", reference=60.0, period=30)
                .chaos(schedule)
            )
            if reads:
                builder.reads(
                    SinusoidalRate(mean=50, amplitude=40, period=450), read_units=60,
                    style="adaptive", reference=60.0, period=30,
                )
            return builder

        return build

    @pytest.mark.parametrize("kind", sorted(CHAOS_SCENARIOS))
    def test_single_fault_scenarios(self, kind):
        schedule = CHAOS_SCENARIOS[kind]
        # The storage faults hit both throughput dimensions.
        reads = kind in (FaultKind.THROTTLE_STORM, FaultKind.UPDATE_REJECT)
        reference, spanned = run_pair(self._build(schedule, reads), 900, events=True)
        assert_equivalent(reference, spanned, events=True)
        if reads:
            updates = spanned.recorder.bus.of_kind("capacity.update")
            assert any(e.payload["dimension"] == "read" for e in updates)
        # The fault actually fired, identically in both modes.
        assert reference.chaos_events
        assert spanned.chaos_events == reference.chaos_events
        assert any(e.fault == kind for e in spanned.chaos_events)
        # The always-on checker audited both runs cleanly.
        assert reference.invariants.ok and spanned.invariants.ok

    def test_worker_crash_rebalances_a_topology(self):
        """A crash between control steps lowers the running VM count at
        the next tick, which starts a topology rebalance there: the
        pipeline runs that tick alone, then bounds the span at the
        rebalance's end."""
        topology = TopologyConfig(
            bolts=(BoltSpec("parse", records_per_executor_per_second=500, executors=8),),
            executor_slots_per_vm=4,
            rebalance_seconds=20,
        )
        schedule = ChaosSchedule(faults=(
            FaultSpec(kind=FaultKind.WORKER_CRASH, start=317, intensity=1),
        ), seed=3)

        def build():
            return (
                FlowBuilder("span-eq-topo-crash", seed=11)
                .ingestion(shards=3)
                .analytics(vms=2, topology=topology)
                .storage(write_units=300)
                .workload(ConstantRate(1500))
                .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0, period=120)
                .chaos(schedule)
            )

        reference, spanned = run_pair(build, 900, events=True)
        assert_equivalent(reference, spanned, events=True)
        rebalances = [e.time for e in spanned.recorder.bus.of_kind("rebalance")]
        assert 318 in rebalances, rebalances

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
