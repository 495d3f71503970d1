"""Evaluation metrics, cost accounting and report rendering.

These are the yardsticks of the benchmark suite: SLO violation rates,
settling time and overshoot for controller comparisons (E4, E7), and
capacity-cost integration for the cost-saving experiment (E5).
"""

from repro.analysis.cost import CostSummary, capacity_trace_cost, savings_vs_peak, static_peak_cost
from repro.analysis.metrics import (
    integral_absolute_error,
    overshoot,
    resource_unit_hours,
    settling_time,
    slo_violation_rate,
)
from repro.analysis.report import ComparisonReport
from repro.analysis.runner import (
    RunnerError,
    SweepCase,
    derive_scenario_seed,
    run_scenarios,
    run_scenarios_dict,
)
from repro.analysis.scorecard import (
    SMOKE_SCENARIOS,
    FleetScorecard,
    RunScorecard,
    run_smoke_scenario,
)
from repro.analysis.store import load_run_summary, load_run_traces, save_run
from repro.analysis.summary import LayerSummary, RunSummary, summarize_run

__all__ = [
    "slo_violation_rate",
    "settling_time",
    "overshoot",
    "integral_absolute_error",
    "resource_unit_hours",
    "capacity_trace_cost",
    "static_peak_cost",
    "savings_vs_peak",
    "CostSummary",
    "ComparisonReport",
    "SweepCase",
    "RunnerError",
    "run_scenarios",
    "run_scenarios_dict",
    "derive_scenario_seed",
    "RunSummary",
    "LayerSummary",
    "summarize_run",
    "save_run",
    "load_run_traces",
    "load_run_summary",
    "RunScorecard",
    "FleetScorecard",
    "SMOKE_SCENARIOS",
    "run_smoke_scenario",
]
