"""Tests for the fixed-parallelism Storm topology model."""

import numpy as np
import pytest

from repro import FlowBuilder, LayerKind
from repro.cloud import (
    BoltSpec,
    EC2Config,
    SimEC2Fleet,
    SimKinesisStream,
    SimStormCluster,
    StormConfig,
    TopologyConfig,
)
from repro.core.errors import ConfigurationError
from repro.simulation import SimClock
from repro.workload import StepRate

from tests.test_span_equivalence import assert_equivalent


def two_bolt_topology(rebalance=30):
    return TopologyConfig(
        bolts=(
            BoltSpec("parse", records_per_executor_per_second=500, executors=4),
            BoltSpec("aggregate", records_per_executor_per_second=250, executors=4),
        ),
        executor_slots_per_vm=4,
        rebalance_seconds=rebalance,
    )


def cluster_with(topology, vms=2, boot=0):
    fleet = SimEC2Fleet(config=EC2Config(boot_seconds=boot), initial_instances=vms)
    return SimStormCluster(
        fleet, StormConfig(cpu_noise_std=0.0), np.random.default_rng(0), topology=topology
    )


class TestTopologyConfig:
    def test_bottleneck_bolt_limits_capacity(self):
        topology = two_bolt_topology()
        # parse: 2000 rec/s, aggregate: 1000 rec/s -> bottleneck 1000.
        assert topology.capacity_with_slots(slots=8) == 1000

    def test_short_slots_scale_down_proportionally(self):
        topology = two_bolt_topology()
        # 4 slots for 8 executors: everything at half parallelism.
        assert topology.capacity_with_slots(slots=4) == 500

    def test_extra_slots_do_not_exceed_parallelism(self):
        topology = two_bolt_topology()
        assert topology.capacity_with_slots(slots=100) == 1000

    def test_zero_slots(self):
        assert two_bolt_topology().capacity_with_slots(0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(bolts=())
        with pytest.raises(ConfigurationError):
            BoltSpec("x", records_per_executor_per_second=0, executors=1)
        with pytest.raises(ConfigurationError):
            TopologyConfig(bolts=(
                BoltSpec("a", 100, 1), BoltSpec("a", 100, 1),
            ))
        with pytest.raises(ConfigurationError):
            TopologyConfig(bolts=(BoltSpec("a", 100, 1),), executor_slots_per_vm=0)


class TestRebalance:
    def test_capacity_frozen_until_rebalance_completes(self):
        cluster = cluster_with(two_bolt_topology(rebalance=30), vms=1)
        stream = SimKinesisStream(shards=4)
        clock = SimClock()
        clock.advance()
        # 1 VM = 4 slots = half parallelism = 500 rec/s.
        assert cluster.processing_capacity(clock.now) == 500
        cluster.fleet.set_desired(2, now=clock.now)
        # The new VM triggers a rebalance: the topology pauses...
        clock.advance()
        stream.put_records(100, 0, clock)
        cluster.pull_and_process(stream, 0, clock)
        assert cluster.rebalancing(clock.now)
        assert cluster.processing_capacity(clock.now) == 0
        # ...and full capacity arrives only after the window.
        for _ in range(35):
            clock.advance()
            cluster.pull_and_process(stream, 0, clock)
        assert not cluster.rebalancing(clock.now)
        assert cluster.processing_capacity(clock.now) == 1000

    def test_records_queue_during_rebalance(self):
        cluster = cluster_with(two_bolt_topology(rebalance=10), vms=1)
        stream = SimKinesisStream(shards=4)
        clock = SimClock()
        clock.advance()
        cluster.pull_and_process(stream, 0, clock)  # settle the VM count
        cluster.fleet.set_desired(2, now=clock.now)
        backlog_before = stream.backlog_records
        for _ in range(5):
            clock.advance()
            stream.put_records(400, 0, clock)
            cluster.pull_and_process(stream, 0, clock)
        # Paused topology: everything waits in the stream or pending.
        assert stream.backlog_records + cluster.pending_records >= backlog_before + 1500

    def test_rebalance_consumes_fleet_change_trace(self):
        """The delayed rebalance publish carries the fleet's
        ``last_change_trace`` exactly once: a later VM-count change
        that sets no trace of its own must not inherit a stale one."""
        from repro.observability import EventBus

        cluster = cluster_with(two_bolt_topology(rebalance=5), vms=1)
        bus = EventBus()
        cluster.attach_bus(bus)
        stream = SimKinesisStream(shards=4)
        clock = SimClock()
        clock.advance()
        cluster.pull_and_process(stream, 0, clock)  # settle the VM count
        cluster.fleet.last_change_trace = "analytics@60"
        cluster.fleet.set_desired(2, now=clock.now)
        clock.advance()
        cluster.pull_and_process(stream, 0, clock)
        first = [e for e in bus.events if e.kind == "rebalance"]
        assert len(first) == 1 and first[0].trace == "analytics@60"
        assert cluster.fleet.last_change_trace is None
        # Ride out the window, then change the count with no trace set.
        for _ in range(10):
            clock.advance()
            cluster.pull_and_process(stream, 0, clock)
        cluster.fleet.set_desired(1, now=clock.now)
        clock.advance()
        cluster.pull_and_process(stream, 0, clock)
        rebalances = [e for e in bus.events if e.kind == "rebalance"]
        assert len(rebalances) == 2
        assert rebalances[1].trace is None

    def test_no_topology_means_no_rebalance(self):
        fleet = SimEC2Fleet(config=EC2Config(boot_seconds=0), initial_instances=1)
        cluster = SimStormCluster(fleet, StormConfig(cpu_noise_std=0.0),
                                  np.random.default_rng(0))
        fleet.set_desired(2, now=0)
        assert not cluster.rebalancing(0)
        assert cluster.processing_capacity(0) == 16000


class TestManagedTopologyFlow:
    def _manager(self, period, spans=True):
        topology = TopologyConfig(
            bolts=(
                BoltSpec("parse", records_per_executor_per_second=250, executors=16),
                BoltSpec("aggregate", records_per_executor_per_second=250, executors=16),
            ),
            executor_slots_per_vm=4,
            rebalance_seconds=30,
        )
        return (
            FlowBuilder("topology-flow", seed=19)
            .ingestion(shards=4)
            .analytics(vms=2, topology=topology)
            .storage(write_units=300)
            .workload(StepRate(base=800, level=2400, at=1200))
            .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0,
                     period=period)
            .spans(spans)
            .build()
        )

    def test_fast_control_of_rebalancing_topology_is_a_hazard(self):
        """Each scale action pauses the topology; the pause creates
        backlog; backlog reads as saturated CPU; a controller acting
        every minute keeps adding VMs — the rebalance-storm feedback
        loop real Storm operators know. The model must reproduce it."""
        result = self._manager(period=60).run(4800)
        vms = result.capacity_trace(LayerKind.ANALYTICS)
        # Runaway: far more VMs than the 8 the workload needs.
        assert vms.maximum() > 30

    def test_slow_control_rides_out_rebalances(self):
        """A monitoring period longer than rebalance+drain converges."""
        result = self._manager(period=300).run(4800)
        vms = result.capacity_trace(LayerKind.ANALYTICS)
        assert 2 < vms.values[-1] <= 16
        pending = result.trace(
            "Custom/Storm", "PendingTuples",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS],
        )
        assert pending.values[-1] == 0.0
        cpu_tail = result.utilization_trace(LayerKind.ANALYTICS).slice(3600, 4800)
        assert cpu_tail.mean() < 90.0

    @pytest.mark.parametrize("period", [60, 120, 300])
    def test_span_execution_sees_every_rebalance(self, period):
        """Every change of the running VM count starts a rebalance: a
        boot, and a scale-down, which stops VMs at a control boundary so
        the next tick sees the lower count. Span execution must run that
        tick alone and pick the rebalance's end up, or the spanned run
        stays at zero capacity to the span's end (at 60 s it would read
        no records from t=511). The 60 s and 120 s loops scale down, the
        300 s one only up."""
        reference = self._manager(period, spans=False).run(4800)
        spanned = self._manager(period).run(4800)
        assert_equivalent(reference, spanned)
        vms = spanned.capacity_trace(LayerKind.ANALYTICS).values
        assert any(b < a for a, b in zip(vms, vms[1:])) == (period < 300)

