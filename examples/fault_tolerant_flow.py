#!/usr/bin/env python3
"""Advanced scenario: failures, dashboard reads and budget windows.

Combines three production concerns on top of the basic managed flow:

* **VM failure injection** — two analytics VMs die mid-run; the CPU
  controller replaces them;
* **read-capacity control** — the demo's sliding-window dashboard reads
  the aggregates, and a fourth controller manages the DynamoDB read
  units independently of the write units;
* **time-windowed resource shares** — a small night budget and a
  generous peak budget, solved per window by NSGA-II and enforced as
  controller bounds that switch at the window boundary.

Run with:  python examples/fault_tolerant_flow.py
"""

from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder, LayerKind
from repro.cloud.storm import StormConfig
from repro.core.flow import clickstream_flow_spec
from repro.optimization import BudgetWindow, ResourceShareAnalyzer, analyze_windows
from repro.workload import RampRate, StepRate

DURATION = 4 * 3600


def main() -> None:
    # 1. Budget windows: tight for the first (night) half, generous for
    #    the second (peak) half of the run.
    analyzer = ResourceShareAnalyzer(clickstream_flow_spec())
    schedule = analyze_windows(
        analyzer,
        [
            BudgetWindow(0, DURATION // 2, budget_per_hour=0.6),
            BudgetWindow(DURATION // 2, DURATION, budget_per_hour=2.0),
        ],
        pick="balanced",
        population_size=60,
        generations=80,
    )
    print("per-window resource shares (NSGA-II):")
    print(schedule.table())

    # 2. The managed flow: ramping click volume, stepped dashboard reads,
    #    and two analytics VMs crashing one hour in.
    crash = FaultSpec(FaultKind.WORKER_CRASH, start=3600, intensity=2)
    manager = (
        FlowBuilder("fault-tolerant", seed=23)
        .ingestion(shards=2)
        .analytics(vms=3, storm=StormConfig(records_per_vm_per_second=1000))
        .storage(write_units=200)
        .workload(RampRate(800, 3200, t0=0, t1=DURATION))
        .reads(StepRate(base=40, level=180, at=DURATION // 2), read_units=100,
               style="adaptive", reference=60.0)
        .control_all(style="adaptive", reference=60.0, period=60)
        .share_schedule(schedule)
        .chaos(ChaosSchedule(faults=(crash,), seed=23))
        .build()
    )
    result = manager.run(DURATION)

    print()
    print(result.dashboard())
    print()
    print(f"injected failures: {[(e.time, e.detail) for e in result.chaos_events]}")
    vms = result.trace("Custom/Storm", "RunningVMs",
                       dimensions=result.layer_dimensions[LayerKind.ANALYTICS])
    print(f"VM count range: {vms.minimum():.0f}..{vms.maximum():.0f} "
          f"(dipped after the failures, restored by the controller)")
    rcu = result.trace("AWS/DynamoDB", "ProvisionedReadCapacityUnits",
                       dimensions=result.layer_dimensions[LayerKind.STORAGE])
    print(f"read capacity range: {rcu.minimum():.0f}..{rcu.maximum():.0f} RCU "
          f"(followed the dashboard read step)")
    print(f"total cost: ${result.total_cost:.4f}")


if __name__ == "__main__":
    main()
