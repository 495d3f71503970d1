"""Conservation-law property tests for the service simulators.

No simulator may create or destroy records: everything offered is
accepted or throttled; everything accepted is read, processed or still
buffered. These invariants hold under arbitrary interleavings of puts,
reads and capacity changes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud import (
    DynamoDBConfig,
    EC2Config,
    SimDynamoDBTable,
    SimEC2Fleet,
    SimKinesisStream,
    SimStormCluster,
    StormConfig,
)
from repro.simulation import SimClock

put_amounts = st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=50)


class TestKinesisConservation:
    @given(put_amounts)
    @settings(max_examples=30)
    def test_put_splits_into_accepted_plus_throttled(self, amounts):
        stream = SimKinesisStream(shards=2)
        clock = SimClock()
        for records in amounts:
            clock.advance()
            result = stream.put_records(records, records * 100, clock)
            assert result.accepted_records + result.throttled_records == records
            assert result.accepted_records >= 0
            assert result.throttled_records >= 0

    @given(put_amounts, st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_reads_never_exceed_accepted(self, puts, reads):
        stream = SimKinesisStream(shards=2)
        clock = SimClock()
        total_accepted = 0
        total_read = 0
        for i in range(max(len(puts), len(reads))):
            clock.advance()
            if i < len(puts):
                total_accepted += stream.put_records(puts[i], 0, clock).accepted_records
            if i < len(reads):
                total_read += stream.get_records(reads[i], clock)
        assert total_read + stream.backlog_records == total_accepted

    @given(put_amounts, st.integers(min_value=1, max_value=16))
    @settings(max_examples=20)
    def test_conservation_across_resharding(self, amounts, target):
        stream = SimKinesisStream(shards=2)
        clock = SimClock()
        accepted = 0
        read = 0
        for i, records in enumerate(amounts):
            clock.advance()
            if i == len(amounts) // 2:
                stream.update_shard_count(target, clock.now)
            accepted += stream.put_records(records, 0, clock).accepted_records
            read += stream.get_records(records // 2, clock)
        assert read + stream.backlog_records == accepted


class TestStormConservation:
    @given(put_amounts)
    @settings(max_examples=20)
    def test_pulled_equals_processed_plus_pending(self, amounts):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=0), initial_instances=1)
        cluster = SimStormCluster(fleet, StormConfig(cpu_noise_std=0.0),
                                  np.random.default_rng(0))
        stream = SimKinesisStream(shards=8)
        clock = SimClock()
        accepted = 0
        processed = 0
        for records in amounts:
            clock.advance()
            accepted += stream.put_records(records, 0, clock).accepted_records
            cluster.pull_and_process(stream, 0, clock)
            processed += cluster._tick_processed
        assert processed + cluster.pending_records + stream.backlog_records == accepted


class TestDynamoDBConservation:
    @given(put_amounts)
    @settings(max_examples=30)
    def test_write_splits_into_accepted_plus_throttled(self, amounts):
        table = SimDynamoDBTable(write_units=500, config=DynamoDBConfig(burst_seconds=100))
        clock = SimClock()
        for units in amounts:
            clock.advance()
            result = table.writes.consume(units, clock)
            assert result.accepted_units + result.throttled_units == units

    @given(put_amounts)
    @settings(max_examples=30)
    def test_burst_bucket_never_negative_or_above_cap(self, amounts):
        config = DynamoDBConfig(burst_seconds=60)
        table = SimDynamoDBTable(write_units=200, config=config)
        clock = SimClock()
        for units in amounts:
            clock.advance()
            table.writes.consume(units, clock)
            assert 0.0 <= table.writes.bucket <= 60 * 200


class TestManagedFlowConservation:
    def test_end_to_end_record_accounting(self):
        """Generated = ingested + producer backlog + dropped, and
        ingested = processed + stream backlog + storm pending."""
        from repro import FlowBuilder, LayerKind
        from repro.workload import StepRate

        manager = (
            FlowBuilder("conserve", seed=13)
            .ingestion(shards=1)
            .analytics(vms=1)
            .storage(write_units=200)
            .workload(StepRate(base=500, level=3000, at=600))  # overload
            .build()
        )
        result = manager.run(1800)
        generated = manager.generator.total_records
        ingested = sum(result.trace(
            "AWS/Kinesis", "IncomingRecords", statistic="Sum",
            dimensions=result.layer_dimensions[LayerKind.INGESTION]).values)
        processed = sum(result.trace(
            "Custom/Storm", "ProcessedRecords", statistic="Sum",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS]).values)
        producer_backlog = manager._pipeline._producer_backlog_records
        assert ingested + producer_backlog + result.dropped_records == generated
        assert processed + manager.stream.backlog_records + manager.cluster.pending_records \
            == ingested


# ----------------------------------------------------------------------
# Conservation under arbitrary fault interleavings (chaos harness)
# ----------------------------------------------------------------------
from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder as _FlowBuilder  # noqa: E402
from repro.workload import SinusoidalRate as _SinusoidalRate  # noqa: E402


@st.composite
def _chaos_schedules(draw):
    """Random but valid schedules: windows staggered so same-kind
    overlap (rejected by the DSL) cannot be drawn."""
    specs = []
    cursor = draw(st.integers(min_value=30, max_value=120))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(sorted(FaultKind)))
        if kind is FaultKind.WORKER_CRASH:
            specs.append(FaultSpec(
                kind=kind, start=cursor, intensity=draw(st.integers(min_value=1, max_value=2))
            ))
            cursor += draw(st.integers(min_value=10, max_value=60))
            continue
        duration = draw(st.integers(min_value=30, max_value=240))
        if kind in (FaultKind.SHARD_BROWNOUT, FaultKind.THROTTLE_STORM):
            intensity = draw(st.floats(min_value=0.2, max_value=0.8))
        elif kind is FaultKind.RESHARD_STALL:
            intensity = float(draw(st.integers(min_value=2, max_value=5)))
        elif kind is FaultKind.METRIC_DELAY:
            intensity = float(draw(st.integers(min_value=30, max_value=180)))
        else:
            intensity = 0.0
        spec = FaultSpec(kind=kind, start=cursor, duration=duration, intensity=intensity)
        cursor = spec.end + draw(st.integers(min_value=5, max_value=60))
        specs.append(spec)
    return ChaosSchedule(
        faults=tuple(specs), seed=draw(st.integers(min_value=0, max_value=999))
    )


class TestChaosInvariantProperties:
    """No fault interleaving may create/destroy records, push a
    capacity out of bounds, or desynchronize the cost meters — the
    always-on checker audits all of it at every boundary."""

    @given(schedule=_chaos_schedules(), spans=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_invariants_hold_under_fault_interleavings(self, schedule, spans):
        manager = (
            _FlowBuilder("chaos-prop", seed=7)
            .ingestion(shards=2)
            .analytics(vms=3)
            .storage(write_units=250)
            .workload(_SinusoidalRate(mean=1000, amplitude=500, period=400))
            .control_all(style="adaptive", reference=60.0, period=60)
            .tick(5)
            .spans(spans)
            .chaos(schedule)
            .build()
        )
        result = manager.run(1200)
        report = result.invariants
        assert report.ok, report.describe()
        assert report.checks > 0
        # Capacity bounds hold at the end of the disturbed run too.
        stream, table, fleet = manager.stream, manager.table, manager.fleet
        assert stream.config.min_shards <= stream._shards <= stream.config.max_shards
        assert table.config.min_write_units <= table.writes.units <= table.config.max_write_units
        assert fleet.provisioned_count(1200) <= fleet.config.max_instances
