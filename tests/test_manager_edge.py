"""Edge-case tests for the manager and service interplay."""

import pytest

from repro import FlowBuilder, LayerKind
from repro.cloud import DynamoDBConfig, KinesisConfig
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.manager import FlowElasticityManager
from repro.workload import ConstantRate, StepRate


class TestCoarseTicks:
    def test_runs_with_ten_second_ticks(self):
        manager = (
            FlowBuilder("coarse", seed=3)
            .tick(10)
            .workload(ConstantRate(800))
            .control_all(style="adaptive")
            .build()
        )
        result = manager.run(3600)
        assert result.duration_seconds == 3600
        assert len(result.collector.snapshots) == 60

    def test_coarse_and_fine_ticks_agree_on_totals(self):
        def total_ingested(tick):
            manager = (
                FlowBuilder("tickcmp", seed=3)
                .tick(tick)
                .workload(ConstantRate(500))
                .build()
            )
            result = manager.run(1800)
            trace = result.trace(
                "AWS/Kinesis", "IncomingRecords", statistic="Sum",
                dimensions=result.layer_dimensions[LayerKind.INGESTION],
            )
            return sum(trace.values)

        fine = total_ingested(1)
        coarse = total_ingested(10)
        assert coarse == pytest.approx(fine, rel=0.05)

    def test_control_period_must_align_with_tick(self):
        builder = (
            FlowBuilder("misaligned", seed=3)
            .tick(7)
            .workload(ConstantRate(100))
            .control(LayerKind.ANALYTICS, style="adaptive", period=60)
        )
        with pytest.raises(SimulationError):
            builder.build()

    @pytest.mark.parametrize("tick, period, message", [
        (1, 0, "snapshot_period .* got 0"),
        (1, -60, "snapshot_period .* got -60"),
        (5, 7, "snapshot_period .* tick length 5s, got 7"),
    ])
    def test_snapshot_period_must_be_positive_and_on_ticks(self, tick, period, message):
        with pytest.raises(ConfigurationError, match=message):
            FlowElasticityManager(ConstantRate(100), tick_seconds=tick, snapshot_period=period)


class TestReshardingUnderLoad:
    def test_capacity_changes_mid_run_without_data_loss(self):
        manager = (
            FlowBuilder("reshard", seed=5)
            .ingestion(shards=1, config=KinesisConfig(
                base_reshard_seconds=60, reshard_seconds_per_shard=30))
            .workload(StepRate(base=500, level=2500, at=600))
            .control(LayerKind.INGESTION, style="adaptive")
            .build()
        )
        result = manager.run(3600)
        assert result.dropped_records == 0
        shards = result.capacity_trace(LayerKind.INGESTION)
        assert shards.maximum() >= 3


class TestBurstCreditInterplay:
    def test_burst_bucket_rides_out_window_flushes(self):
        """Writes arrive in window-flush spikes; the burst bucket must
        absorb them without throttling when average demand fits."""
        manager = (
            FlowBuilder("bursty-writes", seed=9)
            .storage(write_units=120, config=DynamoDBConfig(burst_seconds=300))
            .workload(ConstantRate(900))
            .build()
        )
        result = manager.run(1800)
        throttles = result.throttle_trace(LayerKind.STORAGE)
        assert sum(throttles.values) == 0.0

    def test_no_burst_credits_means_flush_throttling(self):
        manager = (
            FlowBuilder("no-burst", seed=9)
            .storage(write_units=120, config=DynamoDBConfig(burst_seconds=0))
            .workload(ConstantRate(900))
            .build()
        )
        result = manager.run(1800)
        throttles = result.throttle_trace(LayerKind.STORAGE)
        # Window flushes deliver ~10x the per-second provision at once.
        assert sum(throttles.values) > 0.0


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def result(self):
        return (
            FlowBuilder("accessors", seed=3)
            .workload(ConstantRate(500))
            .build()
            .run(600)
        )

    def test_unknown_metric_trace_raises(self, result):
        from repro.core.errors import MonitoringError

        with pytest.raises(MonitoringError):
            result.trace("AWS/Kinesis", "NoSuchMetric",
                         dimensions=result.layer_dimensions[LayerKind.INGESTION])

    def test_trace_without_dimensions_raises(self, result):
        from repro.core.errors import MonitoringError

        # All service metrics are dimensioned; the rollup does not exist.
        with pytest.raises(MonitoringError):
            result.trace("AWS/Kinesis", "IncomingRecords")

    def test_custom_period_aggregation(self, result):
        per_minute = result.utilization_trace(LayerKind.INGESTION, period=60)
        per_5min = result.utilization_trace(LayerKind.INGESTION, period=300)
        assert len(per_minute) == 10
        assert len(per_5min) == 2

    def test_zero_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            FlowBuilder().ingestion(shards=0).workload(ConstantRate(1)).build()
