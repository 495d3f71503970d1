"""Unit tests for CloudWatch sensors and service actuators."""

import pytest

from repro.cloud import SimCloudWatch, SimDynamoDBTable, SimEC2Fleet, SimKinesisStream
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.ec2 import EC2Config
from repro.control import (
    CloudWatchSensor,
    DynamoDBActuator,
    KinesisShardActuator,
    StormVMActuator,
)
from repro.core.errors import ControlError


class TestCloudWatchSensor:
    def test_reads_window_average(self):
        cw = SimCloudWatch()
        for t, v in [(10, 40.0), (20, 60.0), (30, 80.0)]:
            cw.put_metric_data("NS", "M", v, t)
        sensor = CloudWatchSensor(cw, "NS", "M", window=20)
        assert sensor.measure(30) == pytest.approx(70.0)  # (60+80)/2

    def test_returns_none_when_empty(self):
        sensor = CloudWatchSensor(SimCloudWatch(), "NS", "M", window=60)
        assert sensor.measure(60) is None

    def test_statistic_option(self):
        cw = SimCloudWatch()
        cw.put_metric_data("NS", "M", 5.0, 10)
        cw.put_metric_data("NS", "M", 15.0, 20)
        sensor = CloudWatchSensor(cw, "NS", "M", window=60, statistic="Sum")
        assert sensor.measure(60) == 20.0

    def test_window_validation(self):
        with pytest.raises(ControlError):
            CloudWatchSensor(SimCloudWatch(), "NS", "M", window=0)

    def test_percentile_statistic(self):
        cw = SimCloudWatch()
        for t, v in enumerate([10.0, 20.0, 30.0, 1000.0], start=1):
            cw.put_metric_data("NS", "Latency", v, t)
        sensor = CloudWatchSensor(cw, "NS", "Latency", window=60, statistic="p50")
        assert sensor.measure(60) == pytest.approx(25.0)

    def test_bad_statistic_rejected_at_construction(self):
        from repro.core.errors import MonitoringError

        with pytest.raises(MonitoringError, match="unsupported statistic"):
            CloudWatchSensor(SimCloudWatch(), "NS", "M", statistic="Median")


class TestKinesisShardActuator:
    def test_get_and_apply(self):
        stream = SimKinesisStream(shards=2)
        actuator = KinesisShardActuator(stream)
        assert actuator.get(0) == 2.0
        applied = actuator.apply(5.0, now=0)
        assert applied == 5.0
        # While resharding, get() reports the commanded target.
        assert actuator.get(1) == 5.0

    def test_apply_during_reshard_returns_inflight_target(self):
        stream = SimKinesisStream(shards=2)
        actuator = KinesisShardActuator(stream)
        actuator.apply(5.0, now=0)
        assert actuator.apply(9.0, now=1) == 5.0


class TestStormVMActuator:
    def test_get_counts_provisioned(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=60), initial_instances=2)
        actuator = StormVMActuator(fleet)
        actuator.apply(4.0, now=0)
        assert actuator.get(0) == 4.0  # includes booting VMs
        assert fleet.running_count(0) == 2

    def test_apply_clamps_to_fleet_limits(self):
        fleet = SimEC2Fleet(config=EC2Config(max_instances=3), initial_instances=1)
        actuator = StormVMActuator(fleet)
        assert actuator.apply(99.0, now=0) == 3.0


class TestDynamoDBWriteActuator:
    def test_get_and_apply_with_delay(self):
        table = SimDynamoDBTable(
            write_units=100, config=DynamoDBConfig(update_delay_seconds=30)
        )
        actuator = DynamoDBActuator(table.writes)
        assert actuator.apply(200.0, now=0) == 200.0
        # During the update, get() reports the commanded target.
        assert actuator.get(10) == 200.0
        assert table.writes.capacity(10) == 100
        assert actuator.get(30) == 200.0
        assert table.writes.capacity(30) == 200
