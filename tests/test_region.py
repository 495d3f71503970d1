"""Tests for the shared-region capacity pool and account limits.

The contract under test (see ``repro/cloud/region.py``): usage is
*committed* capacity summed purely at query time, only increases are
gated, a denial changes nothing and raises a
:class:`RegionCapacityError` that the retry stack classifies as
transient, and the contention factor is a pure function of pool load.
"""

import pytest

from repro.cloud.dynamodb import SimDynamoDBTable
from repro.cloud.ec2 import EC2Config, SimEC2Fleet
from repro.cloud.kinesis import KinesisConfig, SimKinesisStream
from repro.cloud.region import RESOURCE_LIMITS, RegionContext, RegionLimits
from repro.core.errors import (
    CapacityError,
    ConfigurationError,
    RegionCapacityError,
    TransientAPIError,
)

#: Per resource: a service committing ``units`` of it (every change slow
#: to apply, so a pending one is still in flight) and its resize call.
SERVICES = {
    "instances": (
        lambda units: SimEC2Fleet(config=EC2Config(boot_seconds=60), initial_instances=units),
        lambda fleet, target, now: fleet.set_desired(target, now),
    ),
    "shards": (
        lambda units: SimKinesisStream(
            name="s", shards=units, config=KinesisConfig(base_reshard_seconds=300)
        ),
        lambda stream, target, now: stream.update_shard_count(target, now),
    ),
    "write_units": (
        lambda units: SimDynamoDBTable(name="t", write_units=units, read_units=1),
        lambda table, target, now: table.writes.update(target, now),
    ),
    "read_units": (
        lambda units: SimDynamoDBTable(name="t", write_units=1, read_units=units),
        lambda table, target, now: table.reads.update(target, now),
    ),
}

each_resource = pytest.mark.parametrize("resource", sorted(SERVICES))


def _attached(region, resource, flow_id, units):
    """A service committing ``units`` of ``resource`` for ``flow_id``,
    and a resize call for it."""
    build, resize = SERVICES[resource]
    service = build(units)
    service.attach_region(region, flow_id)
    return lambda target, now: resize(service, target, now)


def _limited(resource, limit):
    return RegionContext(limits=RegionLimits(**{RESOURCE_LIMITS[resource]: limit}))


class TestRegionLimitsValidation:
    def test_defaults_valid(self):
        RegionLimits()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_instances=0),
            dict(max_total_shards=0),
            dict(max_total_write_units=0),
            dict(max_total_read_units=0),
            dict(contention_threshold=0.0),
            dict(contention_threshold=1.5),
            dict(contention_slope=-0.1),
            dict(contention_slope=1.0),
        ],
    )
    def test_bad_limits_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RegionLimits(**kwargs)


class TestRegistration:
    def test_duplicate_flow_id_rejected_per_service(self):
        region = RegionContext()
        fleet = SimEC2Fleet(initial_instances=1)
        fleet.attach_region(region, "f1")
        other = SimEC2Fleet(initial_instances=1)
        with pytest.raises(ConfigurationError, match="already registered"):
            other.attach_region(region, "f1")

    def test_flow_ids_union_over_services(self):
        region = RegionContext()
        SimEC2Fleet(initial_instances=1).attach_region(region, "a")
        SimKinesisStream(name="s", shards=1).attach_region(region, "b")
        assert region.flow_ids == ["a", "b"]


class TestCommittedAccounting:
    def test_booting_instances_count_in_full(self):
        region = RegionContext()
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=60), initial_instances=2)
        fleet.attach_region(region, "f1")
        fleet.set_desired(5, now=10)
        # Still booting at t=10, but the account already promised them.
        assert region.in_use("instances", 10) == 5
        assert region.headroom(10)["instances"] == RegionLimits().max_instances - 5

    def test_inflight_reshard_target_counts(self):
        region = RegionContext()
        stream = SimKinesisStream(
            name="s", shards=2, config=KinesisConfig(base_reshard_seconds=300)
        )
        stream.attach_region(region, "f1")
        stream.update_shard_count(4, now=0)
        assert region.in_use("shards", 0) == 4  # target, not current

    def test_pending_update_table_counts(self):
        region = RegionContext()
        table = SimDynamoDBTable(name="t", write_units=100, read_units=50)
        table.attach_region(region, "f1")
        table.writes.update(400, now=0)
        assert region.in_use("write_units", 0) == 400

    def test_accounting_sums_across_flows(self):
        for resource in SERVICES:
            region = RegionContext()
            for flow_id, units in (("f0", 2), ("f1", 3)):
                _attached(region, resource, flow_id, units)
            assert region.in_use(resource, 0) == 5, resource

    @each_resource
    def test_pending_increase_counts_in_full(self, resource):
        region = RegionContext()
        _attached(region, resource, "f1", 2)(5, 10)
        assert region.in_use(resource, 10) == 5
        assert region.committed(resource, "f1", 10) == 5
        assert region.headroom(10)[resource] == region.limits.limit(resource) - 5


class TestAdmission:
    def test_over_limit_launch_denied_and_nothing_changes(self):
        region = RegionContext(limits=RegionLimits(max_instances=3))
        fleet_a = SimEC2Fleet(initial_instances=2)
        fleet_a.attach_region(region, "a")
        fleet_b = SimEC2Fleet(initial_instances=1)
        fleet_b.attach_region(region, "b")
        with pytest.raises(RegionCapacityError):
            fleet_b.set_desired(2, now=0)
        # All-or-nothing: the denied request committed nothing.
        assert fleet_b.provisioned_count(0) == 1
        assert region.in_use("instances", 0) == 3
        assert region.denials_by_flow() == {"b": {"instances": 1}}

    def test_scale_down_always_succeeds(self):
        for resource in SERVICES:
            region = _limited(resource, 3)
            assert _attached(region, resource, "a", 3)(1, 0) == 1, resource
            assert region.in_use(resource, 0) == 1, resource

    def test_freed_headroom_admits_the_retry(self):
        for resource in SERVICES:
            region = _limited(resource, 4)
            shrink_a = _attached(region, resource, "a", 3)
            grow_b = _attached(region, resource, "b", 1)
            with pytest.raises(RegionCapacityError):
                grow_b(2, 0)
            shrink_a(1, 10)  # neighbor scales down
            assert grow_b(2, 20) == 2, resource  # retry now fits

    def test_over_limit_reshard_denied(self):
        region = RegionContext(limits=RegionLimits(max_total_shards=4))
        s1 = SimKinesisStream(name="s1", shards=3)
        s1.attach_region(region, "a")
        s2 = SimKinesisStream(name="s2", shards=1)
        s2.attach_region(region, "b")
        with pytest.raises(RegionCapacityError):
            s2.update_shard_count(2, now=0)
        assert s2.committed_shards() == 1
        assert region.total_denials("b") == 1

    def test_over_limit_update_table_denied(self):
        region = RegionContext(limits=RegionLimits(max_total_write_units=500))
        t1 = SimDynamoDBTable(name="t1", write_units=400, read_units=10)
        t1.attach_region(region, "a")
        t2 = SimDynamoDBTable(name="t2", write_units=100, read_units=10)
        t2.attach_region(region, "b")
        with pytest.raises(RegionCapacityError):
            t2.writes.update(200, now=0)
        assert t2.writes.committed() == 100

    def test_read_units_gated_independently(self):
        region = RegionContext(limits=RegionLimits(max_total_read_units=100))
        table = SimDynamoDBTable(name="t", write_units=10, read_units=80)
        table.attach_region(region, "a")
        with pytest.raises(RegionCapacityError):
            table.reads.update(150, now=0)
        # Write units were not near their limit, so writes still grow.
        assert table.writes.update(50, now=0) == 50

    @each_resource
    def test_over_limit_increase_denied_and_nothing_changes(self, resource):
        region = _limited(resource, 3)
        _attached(region, resource, "a", 2)
        grow_b = _attached(region, resource, "b", 1)
        with pytest.raises(RegionCapacityError, match=f"asked for 1 more {resource} "):
            grow_b(2, 0)
        # All-or-nothing: the denied request committed nothing.
        assert region.committed(resource, "b", 0) == 1
        assert region.in_use(resource, 0) == 3
        assert region.denials_by_flow() == {"b": {resource: 1}}

    def test_error_is_truthful_on_both_axes(self):
        """A region denial is a capacity error AND transient — the
        retry/breaker actuator stack absorbs it with no special case."""
        assert issubclass(RegionCapacityError, CapacityError)
        assert issubclass(RegionCapacityError, TransientAPIError)


class TestContention:
    def _region(self, max_instances=10, threshold=0.5, slope=0.4):
        return RegionContext(
            limits=RegionLimits(
                max_instances=max_instances,
                contention_threshold=threshold,
                contention_slope=slope,
            )
        )

    def test_no_contention_below_threshold(self):
        region = self._region()
        SimEC2Fleet(initial_instances=5).attach_region(region, "a")
        assert region.contention_factor(0) == 1.0

    def test_linear_ramp_above_threshold(self):
        region = self._region()
        SimEC2Fleet(initial_instances=8).attach_region(region, "a")
        # utilization 0.8, over = (0.8-0.5)/0.5 = 0.6 -> 1 - 0.4*0.6
        assert region.contention_factor(0) == pytest.approx(1.0 - 0.4 * 0.6)

    def test_full_pool_hits_max_loss(self):
        region = self._region()
        SimEC2Fleet(initial_instances=10).attach_region(region, "a")
        assert region.contention_factor(0) == pytest.approx(0.6)

    def test_zero_slope_disables_contention(self):
        region = self._region(slope=0.0)
        SimEC2Fleet(initial_instances=10).attach_region(region, "a")
        assert region.contention_factor(0) == 1.0

    def test_threshold_one_disables_contention(self):
        region = self._region(threshold=1.0)
        SimEC2Fleet(initial_instances=10).attach_region(region, "a")
        assert region.contention_factor(0) == 1.0
