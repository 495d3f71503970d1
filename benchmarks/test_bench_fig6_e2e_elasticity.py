"""E6 — Fig. 6: live elasticity control and monitoring, end to end.

The demo's final step: "Flower will accordingly launch visualizations
... The attendees will then observe how different controllers change
the cloud services capacities dynamically and the resulting
performance" (Sec. 4, Fig. 6).

This benchmark runs the fully managed flow (all three adaptive
controllers) through six hours of diurnal + flash-crowd traffic and
reproduces Fig. 6's content: the per-layer capacity and utilisation
series plus the consolidated dashboard. Shape targets: capacity tracks
the workload at every layer, utilisation is held near the reference,
and overload is transient.
"""

import pytest

from repro import FlowBuilder, LayerKind
from repro.dependency import pearson_r
from repro.analysis import slo_violation_rate
from repro.monitoring import stacked_panels
from repro.simulation import derive_rng
from repro.workload import FlashCrowdRate, NoisyRate, SinusoidalRate

from benchmarks.conftest import write_report

DURATION = 6 * 3600
SEED = 42


def fig6_workload():
    # One full traffic cycle compressed into the 6 h demo window (range
    # ~500 .. ~4500 records/s) so every layer has to scale visibly up
    # AND down during the run, like the demo's live dashboard.
    base = SinusoidalRate(mean=2500.0, amplitude=2000.0, period=DURATION,
                          phase=-DURATION // 4)
    crowd = base + FlashCrowdRate(peak=1500, at=4 * 3600 + 1800, rise_seconds=180,
                                  decay_seconds=1200)
    return NoisyRate(crowd, derive_rng(SEED, "fig6.noise"), horizon=DURATION, sigma=0.06)


@pytest.fixture(scope="module")
def run():
    manager = (
        FlowBuilder("fig6", seed=SEED)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(fig6_workload())
        .control_all(style="adaptive", reference=60.0, period=60)
        .build()
    )
    return manager.run(DURATION)


def test_fig6_e2e_elasticity(run, results_dir):
    records = run.trace(
        "AWS/Kinesis", "IncomingRecords", period=300, statistic="Sum",
        dimensions=run.layer_dimensions[LayerKind.INGESTION],
    )
    shards = run.capacity_trace(LayerKind.INGESTION, period=300)
    util_by_layer = {kind: run.utilization_trace(kind) for kind in LayerKind}
    capacity_by_layer = {kind: run.capacity_trace(kind, period=300) for kind in LayerKind}

    tracking_r = pearson_r(records.values, shards.values)
    lines = [
        "E6 — Fig. 6: elasticity control and monitoring (6 h, all layers adaptive)",
        f"  workload records (5-min sums): min={records.minimum():,.0f} "
        f"max={records.maximum():,.0f}",
        f"  shard count range:  {shards.minimum():.0f}..{shards.maximum():.0f}",
        f"  VM count range:     {capacity_by_layer[LayerKind.ANALYTICS].minimum():.0f}.."
        f"{capacity_by_layer[LayerKind.ANALYTICS].maximum():.0f}",
        f"  WCU range:          {capacity_by_layer[LayerKind.STORAGE].minimum():.0f}.."
        f"{capacity_by_layer[LayerKind.STORAGE].maximum():.0f}",
        f"  r(workload, shard capacity): {tracking_r:+.3f}",
    ]
    for kind in LayerKind:
        violations = 100.0 * slo_violation_rate(util_by_layer[kind], "<=", 90.0)
        lines.append(
            f"  {kind.name.lower():<10} util mean={util_by_layer[kind].mean():5.1f}%  "
            f"time above 90%: {violations:.1f}%"
        )
    lines += [
        "",
        stacked_panels(
            [records, shards,
             capacity_by_layer[LayerKind.ANALYTICS], capacity_by_layer[LayerKind.STORAGE]],
            titles=["workload — records per 5 min", "Kinesis shards",
                    "Storm VMs", "DynamoDB WCU"],
            height=6,
        ),
        "",
        run.dashboard(),
    ]
    write_report(results_dir, "E6_fig6_e2e_elasticity", "\n".join(lines))

    # Capacity tracks the workload (the Fig. 6 visual, as a statistic).
    assert tracking_r > 0.7
    # Every layer actually scaled during the day.
    for kind in LayerKind:
        trace = capacity_by_layer[kind]
        assert trace.maximum() > trace.minimum(), kind
    # Utilisation is held: limited time above 90 % at every layer.
    for kind in LayerKind:
        assert slo_violation_rate(util_by_layer[kind], "<=", 90.0) < 0.15, kind
    # Data keeps flowing: nothing was dropped outright.
    assert run.dropped_records == 0
    assert run.dropped_writes == 0
