"""E4 — Sec. 3.3 / companion paper [9]: controller comparison.

Paper: "Our experiments in [9] have shown that our control system
outperforms the state of the art fixed-gain [12] and quasi-adaptive
[14] counterparts", and Sec. 1 argues the rule-based autoscalers of
cloud providers "often fail to adapt to unplanned or unforeseen changes
in demand".

This benchmark drives the same three-layer flow with each controller
style through a demanding workload (step + flash crowd on a diurnal
base) and reports SLO violations, throttled records, settling time
after the step, and resource cost. Shape target: Flower's adaptive
multi-stage-gain controller is never worse than the baselines on SLO
violations and settles at least as fast as the fixed-gain and
quasi-adaptive designs.
"""

import pytest

from repro import FlowBuilder, LayerKind
from repro.analysis import ComparisonReport, settling_time, slo_violation_rate
from repro.simulation import derive_rng
from repro.workload import FlashCrowdRate, NoisyRate, SinusoidalRate, StepRate

from benchmarks.conftest import write_report

DURATION = 4 * 3600
STEP_AT = 3600
SLO_UTIL = 85.0  # SLO: ingestion write utilisation <= 85 %
STYLES = ("adaptive", "fixed", "quasi", "rule")


def shootout_workload(seed=21):
    base = SinusoidalRate(mean=800.0, amplitude=250.0, period=DURATION)
    stepped = base + StepRate(base=0, level=1800, at=STEP_AT)
    crowd = stepped + FlashCrowdRate(peak=1500, at=3 * 3600, rise_seconds=120,
                                     decay_seconds=900)
    return NoisyRate(crowd, derive_rng(seed, "shootout.noise"), horizon=DURATION, sigma=0.05)


def run_style(style: str):
    manager = (
        FlowBuilder(f"shootout-{style}", seed=21)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(shootout_workload())
        .control_all(style=style, reference=60.0, period=60)
        .build()
    )
    result = manager.run(DURATION)
    util = result.utilization_trace(LayerKind.INGESTION)
    throttles = result.throttle_trace(LayerKind.INGESTION)
    settle = settling_time(util, 0.0, SLO_UTIL, start=STEP_AT, hold_seconds=600)
    return {
        "violations_%": 100.0 * slo_violation_rate(util, "<=", SLO_UTIL),
        "throttled_rec": sum(throttles.values),
        "settle_after_step_s": float(settle) if settle is not None else None,
        "cost_$": result.total_cost,
        "actions": sum(result.loops[kind].actions_taken for kind in LayerKind),
    }


@pytest.fixture(scope="module")
def outcomes():
    return {style: run_style(style) for style in STYLES}


def test_controller_comparison(outcomes, results_dir):
    columns = ["violations_%", "throttled_rec", "settle_after_step_s", "cost_$", "actions"]
    report = ComparisonReport(
        "E4 — controller comparison (step + flash crowd, 4 h, SLO: ingestion util <= 85%)",
        columns,
    )
    for style in STYLES:
        report.add_row(style, [outcomes[style][c] for c in columns])
    write_report(results_dir, "E4_controller_comparison", report.render())

    adaptive = outcomes["adaptive"]
    # Flower's controller meets the SLO at least as well as every baseline.
    for style in ("fixed", "quasi", "rule"):
        assert adaptive["violations_%"] <= outcomes[style]["violations_%"] + 1e-9, style
    # And settles after the step at least as fast as the control-theory baselines.
    assert adaptive["settle_after_step_s"] is not None
    for style in ("fixed", "quasi"):
        other = outcomes[style]["settle_after_step_s"]
        if other is not None:
            assert adaptive["settle_after_step_s"] <= other + 1e-9, style
    # Throttling under Flower is bounded by the worst baseline by a margin.
    worst = max(outcomes[s]["throttled_rec"] for s in ("fixed", "quasi", "rule"))
    assert adaptive["throttled_rec"] <= worst
