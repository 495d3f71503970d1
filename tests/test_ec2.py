"""Unit tests for the simulated EC2 fleet."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import EC2Config, SimEC2Fleet
from repro.cloud.ec2 import Instance, InstanceState
from repro.core.errors import CapacityError, ConfigurationError

_STATES = (None, InstanceState.PENDING, InstanceState.RUNNING, InstanceState.TERMINATED)


class TestEC2Config:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            EC2Config(min_instances=5, max_instances=2)
        with pytest.raises(ConfigurationError):
            EC2Config(min_instances=0)

    def test_rejects_negative_boot(self):
        with pytest.raises(ConfigurationError):
            EC2Config(boot_seconds=-1)


class TestSimEC2Fleet:
    def test_initial_instances_ready_immediately(self):
        fleet = SimEC2Fleet(initial_instances=3)
        assert fleet.running_count(0) == 3
        assert fleet.provisioned_count(0) == 3

    def test_initial_count_respects_limits(self):
        with pytest.raises(CapacityError):
            SimEC2Fleet(config=EC2Config(max_instances=2), initial_instances=3)

    def test_scale_up_has_boot_latency(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=90), initial_instances=1)
        fleet.set_desired(3, now=100)
        assert fleet.provisioned_count(100) == 3
        assert fleet.running_count(100) == 1
        assert fleet.running_count(189) == 1
        assert fleet.running_count(190) == 3

    def test_scale_down_is_immediate(self):
        fleet = SimEC2Fleet(initial_instances=4)
        fleet.set_desired(2, now=50)
        assert fleet.running_count(50) == 2
        assert fleet.provisioned_count(50) == 2

    def test_scale_down_terminates_newest_first(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=0), initial_instances=1)
        fleet.set_desired(2, now=100)  # newer instance launched at t=100
        fleet.set_desired(1, now=200)
        survivors = fleet.instances(200)
        assert len(survivors) == 1
        assert survivors[0].launched_at == 0

    def test_desired_clamped_to_limits(self):
        fleet = SimEC2Fleet(config=EC2Config(min_instances=1, max_instances=4), initial_instances=2)
        assert fleet.set_desired(100, now=0) == 4
        assert fleet.set_desired(0, now=10) == 1

    def test_billing_stops_at_termination(self):
        fleet = SimEC2Fleet(initial_instances=2)
        assert fleet.billable_count(10) == 2
        fleet.set_desired(1, now=20)
        assert fleet.billable_count(20) == 1

    def test_billing_starts_at_launch_not_before(self):
        """Regression: an instance launched at t=100 must not be
        billable at earlier times — a cost meter integrating backwards
        (or a span hoist reading ``billable_count`` at an earlier tick)
        would overcharge."""
        fleet = SimEC2Fleet(initial_instances=1)
        fleet.set_desired(2, now=100)
        late = fleet.instances(100)[-1]
        assert late.launched_at == 100
        assert not late.billable(50)
        assert late.billable(100)
        assert fleet.billable_count(50) == 1
        assert fleet.billable_count(100) == 2

    def test_pending_instances_listed_by_state(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=60), initial_instances=1)
        fleet.set_desired(2, now=10)
        assert len(fleet.instances(10, InstanceState.PENDING)) == 1
        assert len(fleet.instances(10, InstanceState.RUNNING)) == 1

    def test_instance_ids_are_unique(self):
        fleet = SimEC2Fleet(initial_instances=2)
        fleet.set_desired(5, now=0)
        ids = [i.instance_id for i in fleet.instances(0)]
        assert len(set(ids)) == 5


class _Model:
    """Brute-force fleet over ``[id, launched_at, ready_at, terminated_at]``
    records: every answer scans every record ever launched."""

    def __init__(self, config: EC2Config, initial: int) -> None:
        self.config = config
        self.records: list[list] = []
        for _ in range(initial):
            self._launch(0, 0)

    def _launch(self, launched_at, ready_at):
        self.records.append([f"i-{len(self.records):06d}", launched_at, ready_at, None])

    @staticmethod
    def state(record, now):
        _, _, ready_at, terminated_at = record
        if terminated_at is not None and now >= terminated_at:
            return InstanceState.TERMINATED
        return InstanceState.RUNNING if now >= ready_at else InstanceState.PENDING

    def instances(self, now, state=None):
        live = [r for r in self.records if self.state(r, now) is not InstanceState.TERMINATED]
        return [tuple(r) for r in live if state is None or self.state(r, now) is state]

    def billable_count(self, now):
        return sum(1 for _, launched_at, _, terminated_at in self.records
                   if launched_at <= now and (terminated_at is None or now < terminated_at))

    def next_capacity_event(self, now):
        events = []
        for _, _, ready_at, terminated_at in self.records:
            if terminated_at is not None and terminated_at <= now:
                continue
            events += [t for t in (ready_at, terminated_at) if t is not None and t > now]
        return min(events, default=None)

    def set_desired(self, desired, now):
        desired = max(self.config.min_instances, min(self.config.max_instances, desired))
        live = [r for r in self.records if self.state(r, now) is not InstanceState.TERMINATED]
        for _ in range(desired - len(live)):
            self._launch(now, now + self.config.boot_seconds)
        newest_first = sorted(live, key=lambda r: r[1], reverse=True)
        for record in newest_first[: max(len(live) - desired, 0)]:
            record[3] = now
        return desired

    def fail_instance(self, instance_id, now):
        for record in self.records:
            if record[0] == instance_id:
                if self.state(record, now) is InstanceState.TERMINATED:
                    return False
                record[3] = now
                return True
        return False


def _assert_agrees(fleet: SimEC2Fleet, model: _Model, now: int) -> None:
    for state in _STATES:
        got = [(i.instance_id, i.launched_at, i.ready_at, i.terminated_at)
               for i in fleet.instances(now, state)]
        assert got == model.instances(now, state), (now, state)
    assert fleet.running_count(now) == len(model.instances(now, InstanceState.RUNNING)), now
    assert fleet.provisioned_count(now) == len(model.instances(now)), now
    assert fleet.billable_count(now) == model.billable_count(now), now
    assert fleet.next_capacity_event(now) == model.next_capacity_event(now), now


class TestQueriesMatchBruteForce:
    """Every query, at the current time and at earlier ones (before the
    latest termination included), answers as a scan of the whole
    launch history would."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), boot=st.integers(0, 150), initial=st.integers(1, 4))
    def test_answers_equal_history_scan(self, data, boot, initial):
        config = EC2Config(boot_seconds=boot, min_instances=1, max_instances=8)
        fleet = SimEC2Fleet(config=config, initial_instances=initial)
        model = _Model(config, initial)
        now = 0
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            now += data.draw(st.integers(0, 120), label="dt")
            if data.draw(st.booleans(), label="scale"):
                desired = data.draw(st.integers(0, 10), label="desired")
                assert fleet.set_desired(desired, now) == model.set_desired(desired, now)
            else:
                # Live, retired or unknown ids alike.
                ids = [r[0] for r in model.records] + ["i-999999"]
                target = data.draw(st.sampled_from(ids), label="fail")
                assert fleet.fail_instance(target, now) == model.fail_instance(target, now)
            terminations = [r[3] for r in model.records if r[3] is not None]
            latest = max(terminations, default=0)
            earlier = data.draw(st.lists(st.integers(0, now), max_size=3), label="earlier")
            for t in {now, now + boot, latest - 1, latest, *earlier}:
                _assert_agrees(fleet, model, t)


class _Retired(Instance):
    """Class a retired instance is switched to: reading any attribute
    raises, so a query that walks the history fails."""

    def __getattribute__(self, name):
        raise AssertionError(f"query read {name!r} of a retired instance")


class TestLongHistory:
    def test_queries_from_latest_termination_on_skip_retired_instances(self):
        """After 500 scale-up/scale-down cycles and ten failures the
        history holds 2,010 retired instances; a query at or after the
        latest termination must not read any of them."""
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=30, max_instances=16),
                            initial_instances=2)
        launched = {}
        now = 0
        for cycle in range(500):
            now += 60
            fleet.set_desired(6, now)
            launched.update((i.instance_id, i) for i in fleet.instances(now))
            now += 60
            fleet.set_desired(2, now)
            if cycle % 50 == 49:
                # The last cycle ends on a failure: the latest
                # termination is an instance fail_instance retired.
                fleet.fail_instance(fleet.instances(now)[-1].instance_id, now)
        live = [i for i in launched.values() if i.terminated_at is None]
        retired = [i for i in launched.values() if i.terminated_at is not None]
        assert len(retired) == 2010 and len(live) == 1
        assert max(i.terminated_at for i in retired) == now
        for instance in retired:
            instance.__class__ = _Retired

        live_ids = [i.instance_id for i in live]
        for t in (now, now + 1, now + 3600):
            assert [i.instance_id for i in fleet.instances(t)] == live_ids
            assert fleet.instances(t, InstanceState.PENDING) == []
            assert fleet.instances(t, InstanceState.TERMINATED) == []
            assert [i.instance_id for i in fleet.instances(t, InstanceState.RUNNING)] == live_ids
            assert fleet.running_count(t) == fleet.provisioned_count(t) == 1
            assert fleet.billable_count(t) == 1
            assert fleet.next_capacity_event(t) is None
        assert not fleet.fail_instance("i-000002", now)  # retired
        assert not fleet.fail_instance("i-999999", now)  # unknown
        assert fleet.set_desired(3, now) == 3
        assert fleet.next_capacity_event(now) == now + 30
        assert fleet.fail_instance(fleet.instances(now)[-1].instance_id, now + 10)
        assert fleet.running_count(now + 10) == 1
        assert fleet.provisioned_count(now + 10) == 2

    def test_counts_and_events_read_no_instance(self):
        """At and after the latest termination the counts and the next
        boot come from the fleet's sorted live columns: with every live
        instance raising on any attribute read, they still answer."""
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=30, max_instances=16),
                            initial_instances=2)
        now = 0
        for cycle in range(20):
            now += 60
            fleet.set_desired(6, now)
            now += 60
            fleet.set_desired(3, now)
        fleet.set_desired(5, now)  # two boots ripe at now + 30
        fleet.fail_instance(fleet.instances(now)[0].instance_id, now)
        instances = fleet.instances(now)
        assert len(instances) == 4
        for instance in instances:
            instance.__class__ = _Retired
        for t, running, event in ((now, 2, now + 30), (now + 29, 2, now + 30),
                                  (now + 30, 4, None), (now + 3600, 4, None)):
            assert fleet.running_count(t) == running, t
            assert fleet.provisioned_count(t) == 4, t
            assert fleet.billable_count(t) == 4, t
            assert fleet.next_capacity_event(t) == event, t

