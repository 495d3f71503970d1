"""E10 — ablation: actuation latency vs monitoring cadence.

DESIGN.md calls out actuation latency as a load-bearing design choice of
the substrate: a fixed-parallelism Storm topology pauses on every
rebalance, so *scaling has a cost*. This ablation shows the interaction
the model exposes — a controller acting faster than the
rebalance-plus-drain cycle enters a rebalance storm (each action causes
the backlog that justifies the next action), while a controller whose
monitoring period covers the cycle converges on the right fleet size.

Not a paper figure; it validates a simulator design decision the
controller experiments rest on.
"""

import pytest

from repro import FlowBuilder, LayerKind
from repro.analysis import ComparisonReport
from repro.cloud import BoltSpec, TopologyConfig
from repro.workload import StepRate

from benchmarks.conftest import write_report

DURATION = 4800


def run_with_period(period: int):
    topology = TopologyConfig(
        bolts=(
            BoltSpec("parse", records_per_executor_per_second=250, executors=16),
            BoltSpec("aggregate", records_per_executor_per_second=250, executors=16),
        ),
        executor_slots_per_vm=4,
        rebalance_seconds=30,
    )
    manager = (
        FlowBuilder(f"rebalance-{period}", seed=19)
        .ingestion(shards=4)
        .analytics(vms=2, topology=topology)
        .storage(write_units=300)
        .workload(StepRate(base=800, level=2400, at=1200))
        .control(LayerKind.ANALYTICS, style="adaptive", reference=60.0, period=period)
        .build()
    )
    result = manager.run(DURATION)
    vms = result.capacity_trace(LayerKind.ANALYTICS)
    return {
        "peak_vms": vms.maximum(),
        "final_vms": vms.values[-1],
        "actions": result.loops[LayerKind.ANALYTICS].actions_taken,
        "cost_$": result.total_cost,
    }


@pytest.fixture(scope="module")
def outcomes():
    return {period: run_with_period(period) for period in (60, 120, 300)}


def test_rebalance_ablation(outcomes, results_dir):
    columns = ["peak_vms", "final_vms", "actions", "cost_$"]
    report = ComparisonReport(
        "E10 — rebalance-storm ablation (fixed-parallelism topology, step load; "
        "the workload needs ~8 VMs)",
        columns,
    )
    for period, outcome in outcomes.items():
        report.add_row(f"period={period}s", [outcome[c] for c in columns])
    write_report(results_dir, "E10_rebalance_ablation", report.render())

    # Fast control spirals (rebalance storm); slow control converges.
    assert outcomes[60]["peak_vms"] > 3 * outcomes[300]["peak_vms"]
    assert outcomes[300]["final_vms"] <= 16
    assert outcomes[300]["cost_$"] < outcomes[60]["cost_$"]
