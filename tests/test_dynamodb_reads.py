"""Tests for the DynamoDB read path and read-capacity control.

The read dimension runs the same data-path and capacity-update suites
as the write dimension (``tests/test_dynamodb.py``); the tests below
add what only reads have: their independence from writes, their
metrics and the managed read workload.
"""

import pytest

from repro import FlowBuilder, LayerKind
from repro.cloud import DynamoDBConfig, SimCloudWatch, SimDynamoDBTable
from repro.core.errors import ConfigurationError
from repro.simulation import SimClock
from repro.workload import ConstantRate, StepRate
from tests.test_dynamodb import CapacityUpdateSuite, DataPathSuite


@pytest.fixture
def clock():
    clock = SimClock(tick_seconds=1)
    clock.advance()
    return clock


def table(read_units=100, **config_kwargs):
    return SimDynamoDBTable(
        write_units=100, read_units=read_units, config=DynamoDBConfig(**config_kwargs)
    )


class TestReadPath(DataPathSuite):
    name = "read"

    def test_read_burst_bucket_independent_of_write_bucket(self, clock):
        t = table(read_units=100, burst_seconds=300)
        for _ in range(5):
            t.reads.consume(0, clock)
            t.writes.consume(100, clock)  # writes fully used: write bucket stays empty
            clock.advance()
        assert t.reads.bucket == 500
        assert t.writes.bucket == 0
        result = t.reads.consume(400, clock)
        assert result.throttled_units == 0

    def test_read_metrics_emitted(self, clock):
        t = table(read_units=100)
        cw = SimCloudWatch()
        t.reads.consume(150, clock)
        t.emit_metrics(cw, clock)
        dims = {"TableName": t.name}
        assert cw.get_series("AWS/DynamoDB", "ConsumedReadCapacityUnits", dims)[1] == [100.0]
        assert cw.get_series("AWS/DynamoDB", "ReadThrottleEvents", dims)[1] == [50.0]
        util = cw.get_series("AWS/DynamoDB", "ReadUtilization", dims)[1][0]
        assert util == pytest.approx(100.0)


class TestReadCapacityUpdates(CapacityUpdateSuite):
    name = "read"

    def test_read_and_write_updates_independent(self):
        t = table(read_units=100, update_delay_seconds=30)
        t.writes.update(500, now=0)
        # A write update in flight does not block a read update.
        assert t.reads.update(200, now=0) == 200


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
