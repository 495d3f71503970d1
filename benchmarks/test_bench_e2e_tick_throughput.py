"""End-to-end tick throughput vs simulation horizon.

The online loop is the part of Flower that actually runs: the manager
"periodically collects live data from multiple sources such as
CloudWatch" (Sec. 3.3) every control period, over a metric history that
grows with the horizon. Before the incremental metric pipeline every
one of those reads re-scanned the whole history, so ticks/sec *fell* as
the run got longer — quadratic total cost. This benchmark measures
ticks/sec at 1x/4x/16x horizon on a fully managed flow with co-located
CloudWatch alarms (the heaviest sensing configuration the repo wires
up) and asserts the scaling stays near-linear: throughput at 16x must
hold most of the 1x throughput instead of collapsing.

Writes ``results/BENCH_e2e.json`` with the pinned pre-change numbers
for the speedup comparison; the reduced-scale smoke variant runs in the
CI benchmark-smoke job next to the NSGA-II smoke.
"""

import json
import time

from repro import FlowBuilder
from repro.cloud import MetricAlarm
from repro.cloud.dynamodb import NAMESPACE as DDB_NS
from repro.cloud.kinesis import NAMESPACE as KINESIS_NS
from repro.cloud.storm import NAMESPACE as STORM_NS
from repro.workload import SinusoidalRate

SEED = 7
BASE_HORIZON = 1800  # seconds at 1 s ticks

#: Pre-change throughput (commit 8b4c8cc, same machine, same scenario):
#: ticks/sec fell 7022 -> 1363 from 1x to 16x as every sensor, alarm
#: and collector read re-scanned the full metric history.
BEFORE_TICKS_PER_SEC = {1: 7021.9, 4: 3997.3, 16: 1363.2}


def managed_flow(horizon: int, name: str):
    """The benchmark flow: all layers adaptive at a 30 s control period,
    plus a threshold alarm co-located on every sensed metric."""
    manager = (
        FlowBuilder(name, seed=SEED)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(SinusoidalRate(mean=1500.0, amplitude=900.0, period=horizon))
        .control_all(style="adaptive", reference=60.0, period=30)
        .build()
    )
    for ns, metric, dims in [
        (KINESIS_NS, "WriteUtilization", {"StreamName": manager.stream.name}),
        (STORM_NS, "CPUUtilization", {"Topology": manager.cluster.name}),
        (DDB_NS, "WriteUtilization", {"TableName": manager.table.name}),
    ]:
        manager.cloudwatch.put_alarm(MetricAlarm(
            name=f"high-{metric}", namespace=ns, metric_name=metric,
            threshold=90.0, period=30, evaluation_periods=2, dimensions=dims,
        ))
    manager.engine.every(30, manager.cloudwatch.evaluate_alarms, name="alarms")
    return manager


def ticks_per_second(scale: int, base_horizon: int = BASE_HORIZON) -> float:
    horizon = base_horizon * scale
    manager = managed_flow(horizon, f"tickbench-{scale}x")
    started = time.perf_counter()
    manager.run(horizon)
    return horizon / (time.perf_counter() - started)


def test_e2e_tick_throughput(results_dir):
    measured = {scale: ticks_per_second(scale) for scale in (1, 4, 16)}

    report = {
        "experiment": "E2E_tick_throughput",
        "base_horizon_seconds": BASE_HORIZON,
        "tick_seconds": 1,
        "control_period": 30,
        "seed": SEED,
        "before_ticks_per_sec": {f"{k}x": v for k, v in BEFORE_TICKS_PER_SEC.items()},
        "before_note": "seed metric pipeline (commit 8b4c8cc), same machine",
        "after_ticks_per_sec": {f"{k}x": round(v, 1) for k, v in measured.items()},
        "speedup_at_16x": round(measured[16] / BEFORE_TICKS_PER_SEC[16], 2),
        "throughput_retention_1x_to_16x": round(measured[16] / measured[1], 3),
    }
    path = results_dir / "BENCH_e2e.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{json.dumps(report, indent=2)}\n[report written to {path}]")

    # Near-linear scaling: a 16x longer run keeps most of the short
    # run's throughput. The pre-change pipeline retained only ~19%.
    assert measured[16] >= 0.5 * measured[1], (
        f"ticks/sec collapsed with horizon: {measured[1]:.0f} at 1x vs "
        f"{measured[16]:.0f} at 16x — the metric pipeline has gone quadratic again"
    )
    # And monotone degradation stays mild at the intermediate point too.
    assert measured[4] >= 0.5 * measured[1]


def test_e2e_tick_throughput_smoke(smoke_report):
    """Reduced-scale variant for CI: same scenario, 600 s base horizon.

    Uses a generous scaling bound so shared-runner noise does not flake,
    but a return to per-read full-history scans still fails here — at
    9,600 ticks the old pipeline already lost well over half its
    throughput relative to the 600-tick run.
    """
    base = 600
    short = ticks_per_second(1, base_horizon=base)
    long = ticks_per_second(16, base_horizon=base)

    report = {
        "experiment": "E2E_tick_throughput_smoke",
        "base_horizon_seconds": base,
        "ticks_per_sec_1x": round(short, 1),
        "ticks_per_sec_16x": round(long, 1),
        "retention": round(long / short, 3),
    }
    smoke_report("BENCH_e2e_smoke", report)

    assert long >= 0.35 * short, (
        f"ticks/sec fell from {short:.0f} (1x) to {long:.0f} (16x) at smoke scale"
    )
