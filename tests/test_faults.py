"""Failure-injection tests: controllers must survive infrastructure loss."""

from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder, LayerKind
from repro.cloud import SimEC2Fleet
from repro.workload import ConstantRate


class TestFailInstance:
    def test_failed_instance_stops_serving_and_billing(self):
        fleet = SimEC2Fleet(initial_instances=3)
        victim = fleet.instances(0)[0].instance_id
        assert fleet.fail_instance(victim, now=100)
        assert fleet.running_count(100) == 2
        assert fleet.billable_count(100) == 2

    def test_unknown_or_dead_instance_returns_false(self):
        fleet = SimEC2Fleet(initial_instances=1)
        assert not fleet.fail_instance("i-999999", now=0)
        victim = fleet.instances(0)[0].instance_id
        assert fleet.fail_instance(victim, now=10)
        assert not fleet.fail_instance(victim, now=20)


class TestControllerRecovery:
    def test_adaptive_controller_replaces_failed_vms(self):
        """Kill two analytics VMs mid-run; the CPU controller must
        scale the fleet back and the flow must end healthy."""
        from repro.cloud.storm import StormConfig

        crash = FaultSpec(FaultKind.WORKER_CRASH, start=1800, intensity=2)
        manager = (
            FlowBuilder("faulty", seed=17)
            .ingestion(shards=4)
            .analytics(vms=5, storm=StormConfig(records_per_vm_per_second=1000))
            .storage(write_units=300)
            .workload(ConstantRate(2800))  # wants ~4-5 VMs at 60% CPU
            .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0)
            .chaos(ChaosSchedule(faults=(crash,), seed=17))
            .build()
        )
        result = manager.run(5400)

        (event,) = result.chaos_events
        assert event.detail.startswith("instances=")
        assert len(event.detail.removeprefix("instances=").split(",")) == 2
        vms = result.trace(
            "Custom/Storm", "RunningVMs",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS],
        )
        steady_before = vms.slice(1200, 1800).mean()
        # Capacity dipped right after the failures...
        assert vms.slice(1810, 2100).minimum() <= steady_before - 1.9
        # ...and was restored by the controller before the end.
        assert vms.slice(4200, 5400).mean() >= steady_before - 1.0
        # The flow ends healthy: no persistent tuple backlog and CPU
        # back near the reference.
        pending = result.trace(
            "Custom/Storm", "PendingTuples",
            dimensions=result.layer_dimensions[LayerKind.ANALYTICS],
        )
        assert pending.values[-1] == 0.0
        cpu_tail = result.utilization_trace(LayerKind.ANALYTICS).slice(4200, 5400)
        assert cpu_tail.mean() < 85.0
