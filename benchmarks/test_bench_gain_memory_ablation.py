"""E7 — ablation of the gain memory ("history of controller decisions").

Paper (Sec. 3.3): "Our control system, unlike the existing solutions,
has the feature of updating the gain parameters in multi-stages and
keeping the history of the previously computed control gains for rapid
elasticity."

This ablation subjects the flow to two *identical* load shocks
separated by a calm period. Without memory, the Eq. 6-7 controller must
re-adapt its gain from scratch on the second shock; with memory it
warm-starts from the gain the first shock converged to. Shape target:
with memory, the second shock recovers at least as fast as the first
and at least as fast as the memory-less controller's second shock, with
less throttling overall.
"""

import pytest

from repro import LayerControlConfig, LayerKind
from repro.analysis import settling_time
from repro.core.config import default_adaptive_controller
from repro.workload import ConstantRate, StepRate

from benchmarks.conftest import write_report

DURATION = 4 * 3600
SHOCK1_AT = 3600
SHOCK2_AT = 3 * 3600
SHOCK_LEN = 1800
SETTLE_BAND = 85.0


def shock_workload():
    base = ConstantRate(600.0)
    shock1 = StepRate(base=0, level=2400, at=SHOCK1_AT, until=SHOCK1_AT + SHOCK_LEN)
    shock2 = StepRate(base=0, level=2400, at=SHOCK2_AT, until=SHOCK2_AT + SHOCK_LEN)
    return base + shock1 + shock2


def slow_adapting_controller(use_memory: bool):
    """Eq. 6-7 on the ingestion layer with a deliberately slow
    adaptation rate (small gamma), the regime where the paper's gain
    memory pays: without it, every regime shift re-learns the gain over
    many control periods; with it, re-entry warm-starts instantly."""
    from repro.control import AdaptiveGainConfig, AdaptiveGainController

    return AdaptiveGainController(
        AdaptiveGainConfig(
            reference=60.0,
            gamma=0.0001,
            l_min=0.002,
            l_max=0.06,
            use_memory=use_memory,
            memory_bin_width=10.0,
            deadband=5.0,
        )
    )


def run_variant(use_memory: bool):
    controls = {
        LayerKind.INGESTION: LayerControlConfig(
            controller=slow_adapting_controller(use_memory)
        ),
        LayerKind.ANALYTICS: LayerControlConfig(
            controller=default_adaptive_controller(LayerKind.ANALYTICS, use_memory=use_memory)
        ),
        LayerKind.STORAGE: LayerControlConfig(
            controller=default_adaptive_controller(LayerKind.STORAGE, use_memory=use_memory)
        ),
    }
    from repro.core.manager import FlowElasticityManager, ServiceCapacities

    manager = FlowElasticityManager(
        workload=shock_workload(),
        capacities=ServiceCapacities(shards=2, vms=2, write_units=300),
        controls=controls,
        seed=77,
    )
    result = manager.run(DURATION)
    util = result.utilization_trace(LayerKind.INGESTION)
    throttles = sum(result.throttle_trace(LayerKind.INGESTION).values)
    settle1 = settling_time(util.slice(0, SHOCK2_AT), 0.0, SETTLE_BAND,
                            start=SHOCK1_AT, hold_seconds=300)
    settle2 = settling_time(util, 0.0, SETTLE_BAND, start=SHOCK2_AT, hold_seconds=300)
    return {"settle_shock1_s": settle1, "settle_shock2_s": settle2, "throttled": throttles}


@pytest.fixture(scope="module")
def outcomes():
    return {"with-memory": run_variant(True), "without-memory": run_variant(False)}


def test_gain_memory_ablation(outcomes, results_dir):
    with_mem = outcomes["with-memory"]
    without = outcomes["without-memory"]
    lines = [
        "E7 — gain-memory ablation (two identical 40-min shocks, 2 h apart)",
        f"  {'variant':<16} {'settle shock1':>14} {'settle shock2':>14} {'throttled':>12}",
        f"  {'-' * 60}",
    ]
    for name, out in outcomes.items():
        s1 = f"{out['settle_shock1_s']}s" if out["settle_shock1_s"] is not None else "never"
        s2 = f"{out['settle_shock2_s']}s" if out["settle_shock2_s"] is not None else "never"
        lines.append(f"  {name:<16} {s1:>14} {s2:>14} {out['throttled']:>12,.0f}")
    lines.append(
        "  (memory warm-starts the gain on regime re-entry -> rapid elasticity)"
    )
    write_report(results_dir, "E7_gain_memory_ablation", "\n".join(lines))

    assert with_mem["settle_shock2_s"] is not None
    # With memory, the second shock settles at least as fast as the first.
    if with_mem["settle_shock1_s"] is not None:
        assert with_mem["settle_shock2_s"] <= with_mem["settle_shock1_s"]
    # And at least as fast as the memory-less controller's second shock.
    if without["settle_shock2_s"] is not None:
        assert with_mem["settle_shock2_s"] <= without["settle_shock2_s"]
    # Memory never throttles more in total.
    assert with_mem["throttled"] <= without["throttled"] * 1.05
