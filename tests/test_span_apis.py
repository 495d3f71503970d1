"""Unit tests for the span-execution building blocks.

The scenario-level bit-equivalence lives in
``tests/test_span_equivalence.py``; these pin the individual APIs the
span scheduler composes: clock jumps, task due times, span profiling,
the columnar metric write path, per-service capacity-event horizons
and the batched workload-rate reads.
"""

import numpy as np
import pytest

from repro.cloud import SimCloudWatch
from repro.cloud.dynamodb import SimDynamoDBTable
from repro.cloud.ec2 import EC2Config, SimEC2Fleet
from repro.cloud.kinesis import SimKinesisStream
from repro.cloud.storm import BoltSpec, SimStormCluster, StormConfig, TopologyConfig
from repro.core.builder import FlowBuilder
from repro.core.errors import MonitoringError, SimulationError
from repro.observability.profiler import TickProfiler
from repro.simulation.clock import SimClock
from repro.simulation.engine import PeriodicTask
from repro.workload.clickstream import ClickStreamGenerator
from repro.workload.generators import ConstantRate, RateGrid, SinusoidalRate


class TestClockAdvanceTo:
    def test_jump_counts_ticks(self):
        clock = SimClock(tick_seconds=5)
        clock.advance()
        assert clock.advance_to(40) == 40
        assert clock.now == 40
        assert clock.ticks == 8

    def test_backwards_rejected(self):
        clock = SimClock(tick_seconds=1)
        clock.advance_to(10)
        with pytest.raises(SimulationError, match="cannot advance clock backwards"):
            clock.advance_to(10)

    def test_off_grid_rejected(self):
        clock = SimClock(tick_seconds=5)
        with pytest.raises(SimulationError, match="not on the tick grid"):
            clock.advance_to(12)

    def test_matches_repeated_advance(self):
        a = SimClock(tick_seconds=3)
        b = SimClock(tick_seconds=3)
        for _ in range(7):
            a.advance()
        b.advance_to(21)
        assert (a.now, a.ticks) == (b.now, b.ticks)


class TestPeriodicTaskNextDue:
    def test_before_phase_due_at_phase(self):
        task = PeriodicTask(interval=60, callback=lambda now: None, phase=30)
        assert task.next_due(0) == 30
        assert task.next_due(29) == 30

    def test_strictly_after_now(self):
        task = PeriodicTask(interval=60, callback=lambda now: None, phase=30)
        assert task.next_due(30) == 90
        assert task.next_due(31) == 90
        assert task.next_due(89) == 90

    def test_consistent_with_due(self):
        task = PeriodicTask(interval=45, callback=lambda now: None, phase=15)
        for now in range(0, 300):
            due = task.next_due(now)
            assert due > now
            assert task.due(due)
            assert not any(task.due(t) for t in range(now + 1, due))


class TestProfilerRecordSpan:
    def test_accounts_ticks_at_span_mean(self):
        profiler = TickProfiler()
        profiler.record_span(10, 0.5)
        assert profiler.tick_count == 10
        assert profiler.tick_seconds_total == 0.5
        assert profiler.tick_seconds_max == 0.05
        assert sum(profiler.histogram) == profiler.tick_count

    def test_zero_ticks_is_noop(self):
        profiler = TickProfiler()
        profiler.record_span(0, 1.0)
        assert profiler.tick_count == 0
        assert profiler.tick_seconds_total == 0.0

    def test_mixes_with_scalar_ticks(self):
        profiler = TickProfiler()
        profiler.record_tick(0.002)
        profiler.record_span(4, 0.004)
        assert profiler.tick_count == 5
        assert profiler.tick_seconds_max == 0.002
        assert sum(profiler.histogram) == 5


class TestColumnarMetricWrites:
    """``put_metric_frame_batch`` on a one-row frame."""

    def test_batch_equals_scalar_appends(self):
        batched = SimCloudWatch()
        scalar = SimCloudWatch()
        times = [1, 2, 2, 5]
        values = [1.5, -2.0, 0.0, 7.25]
        batched.put_metric_frame_batch("NS", ("M",), times, (values,), {"d": "x"})
        for t, v in zip(times, values):
            scalar.put_metric_frame("NS", ("M",), t, (v,), {"d": "x"})
        a = batched.get_series("NS", "M", {"d": "x"})
        b = scalar.get_series("NS", "M", {"d": "x"})
        assert a == b

    def test_length_mismatch_rejected(self):
        cw = SimCloudWatch()
        with pytest.raises(
            MonitoringError, match=r"equal length, got 2 and 3 datapoints"
        ):
            cw.put_metric_frame_batch("NS", ("M",), [1, 2], ([1.0, 2.0, 3.0],))

    def test_disordered_batch_rejected(self):
        cw = SimCloudWatch()
        with pytest.raises(
            MonitoringError, match=r"time-ordered: got t=3 after t=4"
        ):
            cw.put_metric_frame_batch("NS", ("M",), [1, 4, 3], ([0.0, 0.0, 0.0],))

    def test_batch_before_existing_tail_rejected(self):
        cw = SimCloudWatch()
        cw.put_metric_frame("NS", ("M",), 10, (1.0,))
        with pytest.raises(
            MonitoringError, match=r"time-ordered: got t=9 after t=10"
        ):
            cw.put_metric_frame_batch("NS", ("M",), [9, 11], ([0.0, 0.0],))

    def test_non_flat_columns_rejected(self):
        cw = SimCloudWatch()
        with pytest.raises(MonitoringError, match="flat numeric columns"):
            cw.put_metric_frame_batch("NS", ("M",), [[1, 2]], ([[0.0, 0.0]],))

    def test_rejected_batch_leaves_series_intact(self):
        cw = SimCloudWatch()
        cw.put_metric_frame_batch("NS", ("M",), [1, 2], ([1.0, 2.0],))
        with pytest.raises(MonitoringError):
            cw.put_metric_frame_batch("NS", ("M",), [5, 4], ([0.0, 0.0],))
        assert cw.get_series("NS", "M") == ([1, 2], [1.0, 2.0])
        # And the series still accepts well-formed data afterwards.
        cw.put_metric_frame_batch("NS", ("M",), [6], ([3.0],))
        assert cw.get_series("NS", "M") == ([1, 2, 6], [1.0, 2.0, 3.0])

    def test_empty_batch_is_noop(self):
        cw = SimCloudWatch()
        cw.put_metric_frame_batch("NS", ("M",), [], ([],))
        assert cw.list_metrics() == [("NS", "M")]
        assert cw.get_series("NS", "M") == ([], [])

    def test_batch_values_round_trip_as_builtins(self):
        cw = SimCloudWatch()
        cw.put_metric_frame_batch("NS", ("M",), np.array([1, 2]), (np.array([0.5, 1.5]),))
        times, values = cw.get_series("NS", "M")
        assert all(type(t) is int for t in times)
        assert all(type(v) is float for v in values)


#: A single flow's metrics in ``list_metrics()`` order. Callers may rely
#: on it, so frames keep the per-series store's order, in span and
#: per-tick runs alike.
_FLOW_METRICS = [
    ("AWS/Kinesis", "IncomingRecords"),
    ("AWS/Kinesis", "IncomingBytes"),
    ("AWS/Kinesis", "WriteProvisionedThroughputExceeded"),
    ("AWS/Kinesis", "GetRecords.Records"),
    ("AWS/Kinesis", "ShardCount"),
    ("AWS/Kinesis", "WriteUtilization"),
    ("AWS/Kinesis", "BacklogRecords"),
    ("AWS/Kinesis", "MillisBehindLatest"),
    ("Custom/Storm", "CPUUtilization"),
    ("Custom/Storm", "ProcessedRecords"),
    ("Custom/Storm", "PendingTuples"),
    ("Custom/Storm", "RunningVMs"),
    ("Custom/Storm", "ProvisionedVMs"),
    ("Custom/Storm", "EmittedWrites"),
    ("AWS/DynamoDB", "ConsumedWriteCapacityUnits"),
    ("AWS/DynamoDB", "WriteThrottleEvents"),
    ("AWS/DynamoDB", "ProvisionedWriteCapacityUnits"),
    ("AWS/DynamoDB", "WriteUtilization"),
    ("AWS/DynamoDB", "BurstBalance"),
    ("AWS/DynamoDB", "ConsumedReadCapacityUnits"),
    ("AWS/DynamoDB", "ReadThrottleEvents"),
    ("AWS/DynamoDB", "ProvisionedReadCapacityUnits"),
    ("AWS/DynamoDB", "ReadUtilization"),
]


class TestMetricStoreShape:
    """A flow's store holds one time run per service, shared by that
    service's series, in span and per-tick runs alike; frames a span
    run creates keep the five span-constant capacities as steps."""

    @pytest.mark.parametrize(
        "spans, dense", [(True, [7, 4, 7]), (False, [8, 6, 9])], ids=["span", "per-tick"]
    )
    def test_one_time_column_per_service(self, spans, dense):
        ticks = 300
        result = (
            FlowBuilder("canary", seed=3).workload(ConstantRate(800.0)).spans(spans).build()
            .run(ticks)
        )
        cw = result.cloudwatch
        frames = list(cw._frames.values())
        assert [len(frame.names) for frame in frames] == [8, 6, 9]
        assert [frame._block.shape for frame in frames] == [(rows, ticks) for rows in dense]
        assert [(f._run_at, f._run_t0, f._run_step) for f in frames] == [([0], [1], [1])] * 3
        assert frames[0].times.tolist() == list(range(1, ticks + 1))
        assert len(cw._series) == 23
        for row in cw._series.values():
            assert any(row.frame is frame for frame in frames)
            assert row.times.tolist() == list(range(1, ticks + 1))
            assert len(row.values) == ticks
        assert cw.list_metrics() == _FLOW_METRICS


class TestNextCapacityEvent:
    def test_kinesis_reshard_horizon(self):
        stream = SimKinesisStream(shards=2)
        assert stream.next_capacity_event(0) is None
        clock = SimClock(tick_seconds=1)
        clock.advance()
        stream.update_shard_count(4, clock.now)
        event = stream.next_capacity_event(clock.now)
        assert event is not None and event > clock.now
        # Ripe (or applied) reshards stop bounding spans.
        stream.shard_count(event)
        assert stream.next_capacity_event(event) is None

    def test_dynamodb_write_and_read_horizon(self):
        table = SimDynamoDBTable(write_units=100, read_units=100)
        assert table.next_capacity_event(0) is None
        table.writes.update(200, 10)
        write_ready = table.next_capacity_event(10)
        assert write_ready is not None and write_ready > 10
        table.reads.update(300, 12)
        # The horizon is the sooner of the two pending updates.
        assert table.next_capacity_event(12) == min(write_ready, table.reads.ready_at)
        assert table.next_capacity_event(0) is not None

    def test_storm_rebalance_horizon(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=0), initial_instances=2)
        topology = TopologyConfig(
            bolts=(BoltSpec("b", records_per_executor_per_second=500, executors=4),),
            rebalance_seconds=30,
        )
        cluster = SimStormCluster(
            fleet, StormConfig(cpu_noise_std=0.0), np.random.default_rng(0),
            topology=topology,
        )
        assert cluster.next_capacity_event(0) is None
        cluster.processing_capacity(0)  # establish the VM-count baseline
        fleet.set_desired(3, 0)
        cluster.processing_capacity(1)  # VM change noticed -> rebalance starts
        event = cluster.next_capacity_event(1)
        assert event is not None and event > 1
        assert cluster.next_capacity_event(event) is None

    def test_ec2_warmup_horizon(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=120), initial_instances=1)
        assert fleet.next_capacity_event(0) is None
        fleet.set_desired(3, 10)
        assert fleet.next_capacity_event(10) == 130
        # Once booted, the fleet is stable again.
        assert fleet.next_capacity_event(130) is None


class TestBatchedWorkloadReads:
    def test_rates_span_matches_rate_at(self):
        grid = RateGrid(SinusoidalRate(mean=100, amplitude=50, period=300), 5)
        rates = grid.rates_span(10, 40)
        assert len(rates) == 40
        assert rates == [grid.rate_at(10 + 5 * i) for i in range(40)]
        assert all(type(r) is float for r in rates)

    def test_rates_span_empty(self):
        grid = RateGrid(ConstantRate(10), 1)
        assert grid.rates_span(0, 0) == []

    def test_generate_span_bit_identical_to_generate(self):
        pattern = SinusoidalRate(mean=800, amplitude=400, period=120)
        tick = ClickStreamGenerator(pattern, np.random.default_rng(42))
        span = ClickStreamGenerator(pattern, np.random.default_rng(42))
        clock = SimClock(tick_seconds=1)
        batches = []
        for _ in range(50):
            clock.advance()
            batches.append(tick.generate(clock))
        records, payloads = span.generate_span(1, 50, 1)
        assert records == [b.records for b in batches]
        assert payloads == [b.payload_bytes for b in batches]
        assert span.total_records == tick.total_records
        assert span.total_bytes == tick.total_bytes
        # Both generators end on the same RNG state: not one extra draw.
        assert (
            span._rng.bit_generator.state == tick._rng.bit_generator.state
        )


class TestBuilderSpansKnob:
    def test_spans_default_on(self):
        manager = (
            FlowBuilder("knob", seed=0)
            .workload(ConstantRate(100))
            .build()
        )
        assert manager.engine.span_execution is True

    def test_spans_false_forces_reference_loop(self):
        manager = (
            FlowBuilder("knob", seed=0)
            .workload(ConstantRate(100))
            .spans(False)
            .build()
        )
        assert manager.engine.span_execution is False
