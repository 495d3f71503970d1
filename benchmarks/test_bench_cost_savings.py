"""E5 — Sec. 1 / [15]: holistic vs single-tier elasticity savings.

Paper (Sec. 1, citing Zhu et al. [15]): "the ability to scale down both
web servers and cache tier leads to 65% saving of the peak operational
cost, compared to 45% if we only consider resizing the web tier" — the
motivation for managing *all* layers of the flow rather than one.

This benchmark runs a deep diurnal click-stream for 24 simulated hours
under three provisioning policies:

  static-peak  — every layer held at the peak capacity the elastic run
                 needed (the baseline the savings are measured against);
  analytics-only — only the analytics tier (the flow's "web tier"
                 analogue) is elastic;
  holistic     — Flower's controllers on all three layers.

Shape target: holistic savings clearly exceed single-tier savings, in
the neighbourhood of the paper's 65 % vs 45 % split.
"""

import math

import pytest

from repro import FlowBuilder, LayerKind
from repro.analysis import ComparisonReport
from repro.cloud.storm import StormConfig
from repro.simulation import derive_rng
from repro.workload import DiurnalRate, NoisyRate

from benchmarks.conftest import write_report

DURATION = 24 * 3600
SEED = 33

#: Storm sized so the VM count (the dominant cost) tracks the workload.
STORM = StormConfig(records_per_vm_per_second=1000)


def diurnal_workload():
    base = DiurnalRate(mean=1000.0, amplitude=900.0, peak_hour=20.0)
    return NoisyRate(base, derive_rng(SEED, "diurnal.noise"), horizon=DURATION, sigma=0.05)


def build(capacities, controlled_layers):
    builder = (
        FlowBuilder("cost-savings", seed=SEED)
        .ingestion(shards=capacities[LayerKind.INGESTION])
        .analytics(vms=capacities[LayerKind.ANALYTICS], storm=STORM)
        .storage(write_units=capacities[LayerKind.STORAGE])
        .workload(diurnal_workload())
    )
    for kind in controlled_layers:
        builder = builder.control(kind, style="adaptive", reference=60.0)
    return builder.build()


@pytest.fixture(scope="module")
def scenario_costs():
    # 1. Holistic elastic run: every layer controlled. Its per-layer
    #    capacity peaks define the static-peak baseline.
    start = {LayerKind.INGESTION: 2, LayerKind.ANALYTICS: 2, LayerKind.STORAGE: 300}
    holistic = build(start, list(LayerKind)).run(DURATION)
    peaks = {
        kind: int(math.ceil(holistic.capacity_trace(kind).maximum())) for kind in LayerKind
    }

    # 2. Static peak: all layers pinned at those peaks.
    static = build(peaks, []).run(DURATION)

    # 3. Single-tier: only analytics elastic, other layers at peak.
    single_caps = dict(peaks)
    single_caps[LayerKind.ANALYTICS] = start[LayerKind.ANALYTICS]
    single = build(single_caps, [LayerKind.ANALYTICS]).run(DURATION)

    return {"static-peak": static, "analytics-only": single, "holistic": holistic}, peaks


def test_cost_savings(scenario_costs, results_dir):
    results, peaks = scenario_costs
    peak_cost = results["static-peak"].total_cost
    savings = {
        name: 1.0 - run.total_cost / peak_cost for name, run in results.items()
    }

    report = ComparisonReport(
        "E5 — cost vs static peak provisioning (24 h diurnal click-stream)",
        ["cost_$", "savings_%", "throttled_rec"],
    )
    for name, run in results.items():
        throttled = sum(run.throttle_trace(LayerKind.INGESTION).values)
        report.add_row(name, [run.total_cost, 100.0 * savings[name], throttled])
    lines = [
        report.render(),
        "",
        f"  peak capacities used as the static baseline: "
        f"shards={peaks[LayerKind.INGESTION]}, vms={peaks[LayerKind.ANALYTICS]}, "
        f"wcu={peaks[LayerKind.STORAGE]}",
        f"  paper ([15]): scaling all tiers ~65% savings vs ~45% web tier only",
        f"  measured:     holistic {100 * savings['holistic']:.0f}% vs "
        f"analytics-only {100 * savings['analytics-only']:.0f}%",
    ]
    write_report(results_dir, "E5_cost_savings", "\n".join(lines))

    assert savings["static-peak"] == pytest.approx(0.0, abs=1e-9)
    # The paper's shape: both save, holistic saves clearly more.
    assert savings["analytics-only"] > 0.10
    assert savings["holistic"] > savings["analytics-only"] + 0.05
    assert 0.35 <= savings["holistic"] <= 0.90
    assert 0.10 <= savings["analytics-only"] <= 0.75
