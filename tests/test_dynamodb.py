"""Unit tests for the simulated DynamoDB table.

The two throughput dimensions share one implementation, so they share
one suite: :class:`DataPathSuite` and :class:`CapacityUpdateSuite` are
written against ``table.<dimension>``, and each runs once per
dimension — ``TestWrites`` and ``TestCapacityUpdates`` here,
``TestReadPath`` and ``TestReadCapacityUpdates`` in
``tests/test_dynamodb_reads.py``. The config gives the two dimensions
different bounds and the tables give them different units, so a test
that reads the wrong dimension's settings fails.
"""

import pytest

from repro.cloud import DynamoDBConfig, SimCloudWatch, SimDynamoDBTable
from repro.cloud.region import RegionContext, RegionLimits
from repro.control import DynamoDBActuator
from repro.core.errors import (
    CapacityError,
    ConfigurationError,
    RegionCapacityError,
    TransientAPIError,
)
from repro.simulation import SimClock

#: Distinct bounds per dimension: a clamp to the other one's shows.
BOUNDS = dict(min_write_units=2, max_write_units=500, min_read_units=3, max_read_units=700)


@pytest.fixture
def clock():
    clock = SimClock(tick_seconds=1)
    clock.advance()
    return clock


class _DimensionSuite:
    """The dimension under test: ``table.writes`` or ``table.reads``."""

    #: ``"write"`` or ``"read"``.
    name: str

    def table(self, units=100, **config_kwargs):
        """A table whose dimension under test has ``units`` and an empty
        burst bucket; the other dimension has 7 units."""
        other = "read" if self.name == "write" else "write"
        return SimDynamoDBTable(
            **{f"{self.name}_units": units, f"{other}_units": 7},
            config=DynamoDBConfig(**{**BOUNDS, **config_kwargs}),
        )

    def dim(self, table):
        return getattr(table, f"{self.name}s")


class DataPathSuite(_DimensionSuite):
    def test_accepts_within_provision(self, clock):
        result = self.dim(self.table(units=100)).consume(80, clock)
        assert result.accepted_units == 80
        assert result.throttled_units == 0

    def test_throttles_above_provision(self, clock):
        result = self.dim(self.table(units=100)).consume(150, clock)
        assert result.accepted_units == 100
        assert result.throttled_units == 50

    def test_burst_bucket_absorbs_spikes(self, clock):
        dim = self.dim(self.table(units=100, burst_seconds=300))
        # Ten idle ticks bank 10 * 100 unused units.
        for _ in range(10):
            dim.consume(0, clock)
            clock.advance()
        assert dim.bucket == 1000
        result = dim.consume(600, clock)
        assert result.accepted_units == 600
        assert result.throttled_units == 0
        assert dim.bucket == 500

    def test_burst_bucket_capped(self, clock):
        dim = self.dim(self.table(units=100, burst_seconds=5))
        for _ in range(100):
            dim.consume(0, clock)
            clock.advance()
        assert dim.bucket == 500  # 5 s * 100 units

    def test_throttle_storm_degrades_the_effective_rate(self, clock):
        table = self.table(units=100)
        dim = self.dim(table)
        table.set_throttle_storm(0.6)
        assert dim.effective(0) == 40
        # Provisioned (billed) capacity is untouched by the storm.
        assert dim.capacity(0) == 100
        # Only the effective rate is accepted, and only what it leaves
        # unused refills the bucket (40 - 30, not 100 - 30).
        assert dim.consume(30, clock).accepted_units == 30
        assert dim.bucket == 10
        clock.advance()
        result = dim.consume(100, clock)
        assert (result.accepted_units, result.throttled_units) == (50, 50)
        table.clear_throttle_storm()
        assert dim.effective(0) == 100

    def test_rejects_negative(self, clock):
        with pytest.raises(ConfigurationError):
            self.dim(self.table()).consume(-1, clock)


class CapacityUpdateSuite(_DimensionSuite):
    def test_update_applies_after_delay(self):
        dim = self.dim(self.table(units=100, update_delay_seconds=30))
        dim.update(200, now=0)
        assert dim.capacity(29) == 100
        assert dim.updating(29)
        assert dim.capacity(30) == 200

    def test_update_while_in_flight_ignored(self):
        dim = self.dim(self.table(units=100, update_delay_seconds=30))
        dim.update(200, now=0)
        assert dim.update(300, now=10) == 200

    def test_decrease_cooldown_blocks_second_decrease(self):
        dim = self.dim(self.table(units=100, update_delay_seconds=0,
                                  decrease_cooldown_seconds=3600))
        assert dim.update(80, now=0) == 80
        # Second decrease within the cooldown is refused.
        assert dim.update(60, now=100) == 80
        # Increases are always allowed.
        assert dim.update(120, now=200) == 120
        # After the cooldown the decrease goes through.
        assert dim.update(60, now=3601) == 60

    def test_target_clamped_to_limits(self):
        dim = self.dim(self.table(units=100))
        assert dim.update(10_000, now=0) == BOUNDS[f"max_{self.name}_units"]
        assert dim.update(0, now=100) == BOUNDS[f"min_{self.name}_units"]

    def test_same_target_is_noop(self):
        dim = self.dim(self.table(units=100))
        assert dim.update(100, now=0) == 100
        assert not dim.updating(0)

    def test_update_reject_raises_transient_error(self):
        table = self.table(units=100)
        dim = self.dim(table)
        table.fail_updates()
        with pytest.raises(TransientAPIError, match=rf"UpdateTable\({self.name}\)"):
            dim.update(150, now=0)
        assert dim.committed() == 100
        table.restore_updates()
        assert dim.update(150, now=0) == 150

    def test_region_denies_an_increase_under_its_own_resource(self):
        resource = f"{self.name}_units"
        region = RegionContext(limits=RegionLimits(**{f"max_total_{resource}": 120}))
        table = self.table(units=100)
        table.attach_region(region, "a")
        dim = self.dim(table)
        with pytest.raises(RegionCapacityError, match=f"asked for 50 more {resource}"):
            dim.update(150, now=0)
        # All-or-nothing: the denied request committed nothing.
        assert dim.committed() == 100
        assert region.denials_by_flow() == {"a": {resource: 1}}
        assert dim.update(120, now=0) == 120
        assert region.in_use(resource, 0) == 120

    def test_actuator_reports_inflight_target(self):
        dim = self.dim(self.table(units=100, update_delay_seconds=30))
        actuator = DynamoDBActuator(dim)
        assert actuator.apply(250.0, now=0) == 250.0
        assert actuator.get(10) == 250.0
        assert dim.capacity(10) == 100
        assert actuator.get(30) == 250.0


class TestWrites(DataPathSuite):
    name = "write"


class TestCapacityUpdates(CapacityUpdateSuite):
    name = "write"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamoDBConfig(min_write_units=0)
        with pytest.raises(ConfigurationError):
            DynamoDBConfig(min_write_units=10, max_write_units=5)
        with pytest.raises(ConfigurationError):
            DynamoDBConfig(burst_seconds=-1)

    def test_initial_capacity_respects_limits(self):
        with pytest.raises(CapacityError, match="write_units=50000"):
            SimDynamoDBTable(write_units=50000)
        with pytest.raises(CapacityError, match="read_units=50000"):
            SimDynamoDBTable(read_units=50000)


class TestMetrics:
    def test_emits_and_resets(self, clock):
        table = SimDynamoDBTable(write_units=100)
        cw = SimCloudWatch()
        table.writes.consume(150, clock)
        table.emit_metrics(cw, clock)
        dims = {"TableName": table.name}
        assert cw.get_series("AWS/DynamoDB", "ConsumedWriteCapacityUnits", dims)[1] == [100.0]
        assert cw.get_series("AWS/DynamoDB", "WriteThrottleEvents", dims)[1] == [50.0]
        util = cw.get_series("AWS/DynamoDB", "WriteUtilization", dims)[1][0]
        assert util == pytest.approx(100.0)
        clock.advance()
        table.emit_metrics(cw, clock)
        assert cw.get_series("AWS/DynamoDB", "WriteThrottleEvents", dims)[1][-1] == 0.0
