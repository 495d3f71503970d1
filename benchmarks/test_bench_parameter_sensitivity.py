"""E9 — Sec. 4 step 3: controller-parameter sensitivity.

The demo lets attendees "adjust parameters of the controllers, such as
elasticity speed, monitoring period, or even their internal settings
and compare their impacts on SLOs". This benchmark runs those sweeps:

* **monitoring period** — how often the controller acts: short periods
  react fast but act on noisy windows; long periods are blind between
  actions (the flash crowd punishes them);
* **elasticity speed** (the Eq. 7 gain ceiling ``l_max``) — timid
  ceilings under-react; generous ones risk overshoot.

Shape targets: SLO violations grow monotonically-ish with the
monitoring period under a flash crowd, and the calibrated default gain
ceiling is no worse than the timid extreme.
"""

import pytest

from repro import LayerControlConfig, LayerKind
from repro.analysis import ComparisonReport, slo_violation_rate
from repro.control import AdaptiveGainConfig, AdaptiveGainController
from repro.workload import ConstantRate, FlashCrowdRate

from benchmarks.conftest import write_report

DURATION = 2 * 3600
CROWD_AT = 1800
SLO = 85.0


def workload():
    return ConstantRate(700.0) + FlashCrowdRate(
        peak=2600.0, at=CROWD_AT, rise_seconds=120, decay_seconds=1800
    )


def run_with(period: int, l_max_scale: float = 1.0):
    def controller(kind):
        base = {"gamma": 0.001, "l_min": 0.002, "l_max": 0.05}
        if kind == LayerKind.ANALYTICS:
            base = {"gamma": 0.002, "l_min": 0.005, "l_max": 0.08}
        if kind == LayerKind.STORAGE:
            base = {"gamma": 0.2, "l_min": 0.5, "l_max": 5.0}
        return AdaptiveGainController(AdaptiveGainConfig(
            reference=60.0,
            gamma=base["gamma"],
            l_min=base["l_min"],
            l_max=base["l_max"] * l_max_scale,
            deadband=5.0,
        ))

    controls = {
        kind: LayerControlConfig(controller=controller(kind), period=period, window=period)
        for kind in LayerKind
    }
    from repro.core.manager import FlowElasticityManager, ServiceCapacities

    manager = FlowElasticityManager(
        workload=workload(),
        capacities=ServiceCapacities(shards=1, vms=1, write_units=200),
        controls=controls,
        seed=29,
    )
    result = manager.run(DURATION)
    util = result.utilization_trace(LayerKind.INGESTION)
    return {
        "violations_%": 100.0 * slo_violation_rate(util, "<=", SLO),
        "throttled": sum(result.throttle_trace(LayerKind.INGESTION).values),
        "cost_$": result.total_cost,
        "actions": sum(result.loops[kind].actions_taken for kind in LayerKind),
    }


@pytest.fixture(scope="module")
def sweeps():
    periods = {p: run_with(period=p) for p in (30, 60, 120, 300)}
    gains = {s: run_with(period=60, l_max_scale=s) for s in (0.25, 1.0, 4.0)}
    return periods, gains


def test_parameter_sensitivity(sweeps, results_dir):
    periods, gains = sweeps
    columns = ["violations_%", "throttled", "cost_$", "actions"]
    period_report = ComparisonReport(
        "E9a — monitoring period sweep (flash crowd, SLO util <= 85%)", columns
    )
    for period, outcome in periods.items():
        period_report.add_row(f"period={period}s", [outcome[c] for c in columns])
    gain_report = ComparisonReport(
        "E9b — elasticity speed sweep (l_max scaling, period 60 s)", columns
    )
    for scale, outcome in gains.items():
        gain_report.add_row(f"l_max x{scale:g}", [outcome[c] for c in columns])
    write_report(
        results_dir,
        "E9_parameter_sensitivity",
        period_report.render() + "\n\n" + gain_report.render(),
    )

    # A 5-minute monitoring period is blind through most of the crowd:
    # clearly worse than the 1-minute default.
    assert periods[300]["violations_%"] > periods[60]["violations_%"]
    # Fast periods act much more often than slow ones.
    assert periods[30]["actions"] > periods[300]["actions"]
    # The timid gain ceiling cannot beat the calibrated default.
    assert gains[1.0]["violations_%"] <= gains[0.25]["violations_%"] + 1e-9
