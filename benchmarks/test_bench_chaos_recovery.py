"""MTTR under injected faults: adaptive vs fixed-gain vs quasi-adaptive.

One fault per layer lands mid-run — an ingestion shard brownout, an
analytics worker crash, a storage throttle storm — and each controller
style runs the identical disturbed scenario. Recovery is the settling
time of the disturbed layer's utilization back into the healthy band
(same metric machinery as the controller shootout), read off via
:func:`repro.chaos.recovery_times`. The always-on invariant checker
audits every run; its throughput overhead is measured against an
``.invariants(False)`` twin of the same scenario.

``results/BENCH_chaos.json`` records recovery per style per fault; the
reduced smoke variant runs in the CI benchmark-smoke job.
"""

import json
import time

from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder
from repro.chaos import recovery_times
from repro.workload import ConstantRate

SEED = 42
DURATION = 7200
STYLES = ("adaptive", "fixed", "quasi")

#: One fault per layer, spaced so each recovery window is clean.
LAYER_FAULTS = ChaosSchedule(faults=(
    FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=1200, duration=600, intensity=0.5),
    FaultSpec(kind=FaultKind.WORKER_CRASH, start=3000, intensity=1),
    FaultSpec(kind=FaultKind.THROTTLE_STORM, start=4800, duration=600, intensity=0.6),
), seed=SEED)


def chaos_flow(style: str, schedule: ChaosSchedule, duration: int, invariants: bool = True):
    return (
        FlowBuilder(f"chaos-{style}", seed=SEED)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(ConstantRate(1500.0))
        .control_all(style=style, reference=60.0, period=30)
        .chaos(schedule)
        .invariants(invariants)
        .build()
    )


def measure_style(style: str, schedule: ChaosSchedule, duration: int):
    manager = chaos_flow(style, schedule, duration)
    result = manager.run(duration)
    samples = recovery_times(result, band_high=90.0, hold_seconds=300, period=60)
    recovery = {
        s.fault: (None if s.recovery_seconds is None else int(s.recovery_seconds))
        for s in samples
    }
    report = result.invariants
    return {
        "recovery_seconds": recovery,
        "recovered_all": all(s.recovered for s in samples),
        "invariant_checks": report.checks,
        "invariant_violations": report.total_violations,
        "total_cost": round(result.total_cost, 2),
    }


def ticks_per_second(invariants: bool, repeats: int = 3) -> float:
    best = 0.0
    for _ in range(repeats):
        manager = chaos_flow("adaptive", LAYER_FAULTS, DURATION, invariants=invariants)
        started = time.perf_counter()
        manager.run(DURATION)
        best = max(best, DURATION / (time.perf_counter() - started))
    return best


def test_chaos_recovery(results_dir):
    styles = {style: measure_style(style, LAYER_FAULTS, DURATION) for style in STYLES}

    with_checker = ticks_per_second(invariants=True)
    without_checker = ticks_per_second(invariants=False)
    overhead = max(0.0, without_checker / with_checker - 1.0)

    report = {
        "experiment": "chaos_recovery",
        "duration_seconds": DURATION,
        "seed": SEED,
        "schedule": LAYER_FAULTS.to_dict(),
        "recovery_band": "utilization settles into [0, 90] and holds 300 s",
        "styles": styles,
        "invariant_overhead": {
            "ticks_per_sec_with_checker": round(with_checker, 1),
            "ticks_per_sec_without_checker": round(without_checker, 1),
            "overhead_fraction": round(overhead, 4),
        },
    }
    path = results_dir / "BENCH_chaos.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{json.dumps(report, indent=2)}\n[report written to {path}]")

    # The adaptive controller must recover from all three layer faults
    # within a bounded time, with a clean invariant audit.
    adaptive = styles["adaptive"]
    assert adaptive["invariant_violations"] == 0
    assert adaptive["recovered_all"], adaptive
    for fault, seconds in adaptive["recovery_seconds"].items():
        assert seconds is not None and seconds <= 1800, (fault, seconds)
    # Every style's run must keep the simulator's books clean.
    for style, row in styles.items():
        assert row["invariant_violations"] == 0, style
    # The always-on checker must cost < 5% throughput.
    assert overhead < 0.05, f"invariant checker overhead {overhead:.1%}"


def test_chaos_recovery_smoke(smoke_report):
    """Reduced CI variant: adaptive only, two faults, 3600 s."""
    schedule = ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=600, duration=300, intensity=0.5),
        FaultSpec(kind=FaultKind.WORKER_CRASH, start=1500, intensity=1),
    ), seed=SEED)
    row = measure_style("adaptive", schedule, 3600)

    report = {
        "experiment": "chaos_recovery_smoke",
        "duration_seconds": 3600,
        "seed": SEED,
        "schedule": schedule.to_dict(),
        "adaptive": row,
    }
    smoke_report("BENCH_chaos_smoke", report)

    assert row["invariant_violations"] == 0
    assert row["recovered_all"], row
