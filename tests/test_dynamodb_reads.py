"""Tests for the DynamoDB read path and read-capacity control."""

import pytest

from repro import FlowBuilder, LayerKind
from repro.cloud import DynamoDBConfig, SimCloudWatch, SimDynamoDBTable
from repro.control import DynamoDBReadActuator
from repro.core.errors import ConfigurationError
from repro.simulation import SimClock
from repro.workload import ConstantRate, StepRate


@pytest.fixture
def clock():
    clock = SimClock(tick_seconds=1)
    clock.advance()
    return clock


def table(read_units=100, **config_kwargs):
    return SimDynamoDBTable(
        write_units=100, read_units=read_units, config=DynamoDBConfig(**config_kwargs)
    )


class TestReadPath:
    def test_accepts_within_provision(self, clock):
        t = table(read_units=100)
        result = t.read(80, clock)
        assert result.accepted_units == 80
        assert result.throttled_units == 0

    def test_throttles_above_provision(self, clock):
        t = table(read_units=100)
        result = t.read(150, clock)
        assert result.accepted_units == 100
        assert result.throttled_units == 50

    def test_read_burst_bucket_independent_of_write_bucket(self, clock):
        t = table(read_units=100, burst_seconds=300)
        for _ in range(5):
            t.read(0, clock)
            t.write(100, clock)  # writes fully used: write bucket stays empty
            clock.advance()
        assert t.read_burst_balance == 500
        assert t.burst_balance == 0
        result = t.read(400, clock)
        assert result.throttled_units == 0

    def test_rejects_negative(self, clock):
        with pytest.raises(ConfigurationError):
            table().read(-1, clock)

    def test_read_metrics_emitted(self, clock):
        t = table(read_units=100)
        cw = SimCloudWatch()
        t.read(150, clock)
        t.emit_metrics(cw, clock)
        dims = {"TableName": t.name}
        assert cw.get_series("AWS/DynamoDB", "ConsumedReadCapacityUnits", dims)[1] == [100.0]
        assert cw.get_series("AWS/DynamoDB", "ReadThrottleEvents", dims)[1] == [50.0]
        util = cw.get_series("AWS/DynamoDB", "ReadUtilization", dims)[1][0]
        assert util == pytest.approx(100.0)


class TestReadCapacityUpdates:
    def test_update_applies_after_delay(self):
        t = table(read_units=100, update_delay_seconds=30)
        t.update_read_capacity(200, now=0)
        assert t.read_capacity(29) == 100
        assert t.read_capacity(30) == 200

    def test_read_and_write_updates_independent(self):
        t = table(read_units=100, update_delay_seconds=30)
        t.update_write_capacity(500, now=0)
        # A write update in flight does not block a read update.
        assert t.update_read_capacity(200, now=0) == 200

    def test_read_decrease_cooldown(self):
        t = table(read_units=100, update_delay_seconds=0, decrease_cooldown_seconds=3600)
        assert t.update_read_capacity(50, now=0) == 50
        assert t.update_read_capacity(30, now=60) == 50  # blocked
        assert t.update_read_capacity(30, now=3700) == 30

    def test_actuator_reports_inflight_target(self):
        t = table(read_units=100, update_delay_seconds=30)
        actuator = DynamoDBReadActuator(t)
        assert actuator.apply(250.0, now=0) == 250.0
        assert actuator.get(10) == 250.0
        assert t.read_capacity(10) == 100


class TestManagedReadWorkload:
    def test_read_controller_scales_read_capacity(self):
        manager = (
            FlowBuilder("reads", seed=13)
            .ingestion(shards=1)
            .analytics(vms=1)
            .storage(write_units=200)
            .workload(ConstantRate(400))
            .reads(StepRate(base=30, level=220, at=1800), read_units=100,
                   style="adaptive", reference=60.0)
            .build()
        )
        result = manager.run(3600)
        assert result.read_loop is not None
        rcu = result.trace(
            "AWS/DynamoDB", "ProvisionedReadCapacityUnits",
            dimensions=result.layer_dimensions[LayerKind.STORAGE],
        )
        # Scaled down toward the light read load first, up after the step.
        assert rcu.values[-1] > rcu.slice(600, 1800).minimum()
        util = result.trace(
            "AWS/DynamoDB", "ReadUtilization",
            dimensions=result.layer_dimensions[LayerKind.STORAGE],
        )
        assert util.slice(3000, 3600).mean() < 90.0

    def test_read_workload_without_control_is_static(self):
        manager = (
            FlowBuilder("reads", seed=13)
            .workload(ConstantRate(400))
            .reads(ConstantRate(50), read_units=120)
            .build()
        )
        result = manager.run(600)
        rcu = result.trace(
            "AWS/DynamoDB", "ProvisionedReadCapacityUnits",
            dimensions=result.layer_dimensions[LayerKind.STORAGE],
        )
        assert set(rcu.values) == {120.0}

    def test_read_tick_length_cannot_change_mid_stream(self):
        """Reads are drawn ahead in blocks on one tick raster."""
        manager = (
            FlowBuilder("reads", seed=13)
            .workload(ConstantRate(100))
            .reads(ConstantRate(50))
            .build()
        )
        manager._pipeline._draw_reads(1, 8, 1)
        with pytest.raises(ConfigurationError, match="tick length"):
            manager._pipeline._draw_reads(60, 8, 60)

    def test_read_control_requires_read_workload(self):
        from repro.core.config import LayerControlConfig, make_controller
        from repro.core.manager import FlowElasticityManager

        with pytest.raises(ConfigurationError):
            FlowElasticityManager(
                workload=ConstantRate(100),
                read_control=LayerControlConfig(
                    controller=make_controller("adaptive", LayerKind.STORAGE)
                ),
            )

    def test_read_capacity_is_metered(self):
        manager = (
            FlowBuilder("reads", seed=13)
            .workload(ConstantRate(100))
            .reads(ConstantRate(50), read_units=200)
            .build()
        )
        result = manager.run(3600)
        assert result.cost_by_layer["storage_reads"] > 0
