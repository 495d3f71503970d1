"""Tests for time-windowed share schedules (paper Sec. 2)."""

import pytest

from repro import FlowBuilder, LayerKind
from repro.control.base import Controller
from repro.core.errors import ConfigurationError, OptimizationError
from repro.core.flow import FlowSpec, LayerSpec, clickstream_flow_spec
from repro.optimization import (
    BudgetWindow,
    ResourceShareAnalyzer,
    ScheduledShare,
    ShareSchedule,
    analyze_windows,
)
from repro.optimization.share_analyzer import ResourceShare
from repro.workload import ConstantRate


def share(i, a, s, cost=1.0):
    return ResourceShare(
        shares=((LayerKind.INGESTION, i), (LayerKind.ANALYTICS, a), (LayerKind.STORAGE, s)),
        hourly_cost=cost,
    )


def entry(start, end, budget, picked):
    from repro.optimization.share_analyzer import ShareAnalysisResult

    result = ShareAnalysisResult(
        solutions=[picked], budget_per_hour=budget, flow=clickstream_flow_spec()
    )
    return ScheduledShare(window=BudgetWindow(start, end, budget), result=result, picked=picked)


class TestBudgetWindow:
    def test_contains(self):
        window = BudgetWindow(0, 3600, 1.0)
        assert window.contains(0)
        assert window.contains(3599)
        assert not window.contains(3600)

    def test_validation(self):
        with pytest.raises(OptimizationError):
            BudgetWindow(100, 100, 1.0)
        with pytest.raises(OptimizationError):
            BudgetWindow(0, 100, 0.0)


class TestShareSchedule:
    def test_share_at_picks_covering_window(self):
        schedule = ShareSchedule([
            entry(0, 3600, 0.5, share(2, 1, 100)),
            entry(3600, 7200, 2.0, share(8, 4, 400)),
        ])
        assert schedule.share_at(1800).ingestion == 2
        assert schedule.share_at(3600).ingestion == 8
        # Edges hold the nearest window's plan.
        assert schedule.share_at(99999).ingestion == 8

    def test_bounds_at(self):
        schedule = ShareSchedule([entry(0, 3600, 1.0, share(3, 2, 200))])
        assert schedule.bounds_at(100) == {
            LayerKind.INGESTION: 3,
            LayerKind.ANALYTICS: 2,
            LayerKind.STORAGE: 200,
        }

    def test_rejects_overlap_and_gap(self):
        with pytest.raises(OptimizationError, match="overlap"):
            ShareSchedule([
                entry(0, 3600, 1.0, share(1, 1, 1)),
                entry(1800, 7200, 1.0, share(1, 1, 1)),
            ])
        with pytest.raises(OptimizationError, match="gap"):
            ShareSchedule([
                entry(0, 3600, 1.0, share(1, 1, 1)),
                entry(4000, 7200, 1.0, share(1, 1, 1)),
            ])

    def test_empty_rejected(self):
        with pytest.raises(OptimizationError):
            ShareSchedule([])

    def test_table_renders(self):
        schedule = ShareSchedule([entry(0, 3600, 1.0, share(3, 2, 200))])
        assert "$/h" in schedule.table()
        assert "I=3" in schedule.table()


class TestAnalyzeWindows:
    def _small_flow(self):
        return FlowSpec(
            name="small",
            layers=(
                LayerSpec(LayerKind.INGESTION, "K", "kinesis.shard", "Shards", 1, 16),
                LayerSpec(LayerKind.ANALYTICS, "S", "ec2.m4.large", "VMs", 1, 8),
                LayerSpec(LayerKind.STORAGE, "D", "dynamodb.wcu", "WCU", 1, 1000),
            ),
        )

    def test_solves_each_window(self):
        analyzer = ResourceShareAnalyzer(self._small_flow())
        schedule = analyze_windows(
            analyzer,
            [BudgetWindow(0, 3600, 0.3), BudgetWindow(3600, 7200, 1.2)],
            population_size=40,
            generations=40,
        )
        night = schedule.share_at(0)
        evening = schedule.share_at(3600)
        # Twice the budget buys at least as much of everything picked by
        # the balanced strategy, strictly more of something.
        assert evening.hourly_cost > night.hourly_cost
        assert schedule.span == (0, 7200)

    def test_empty_windows_rejected(self):
        with pytest.raises(OptimizationError):
            analyze_windows(ResourceShareAnalyzer(self._small_flow()), [])

    def test_parallel_windows_identical_to_serial(self):
        analyzer = ResourceShareAnalyzer(self._small_flow())
        windows = [
            BudgetWindow(0, 3600, 0.3),
            BudgetWindow(3600, 7200, 1.2),
            BudgetWindow(7200, 10800, 0.6),
        ]
        kwargs = dict(population_size=24, generations=20, seed=5)
        serial = analyze_windows(analyzer, windows, **kwargs, jobs=1)
        parallel = analyze_windows(analyzer, windows, **kwargs, jobs=2)
        assert serial.table() == parallel.table()
        for a, b in zip(serial.entries, parallel.entries):
            assert a.picked == b.picked
            assert [s.shares for s in a.result.solutions] == [s.shares for s in b.result.solutions]


class _Greedy(Controller):
    """Asks for more VMs than any window's share allows."""

    def compute(self, u_current, y_measured, now):
        return 50.0


class TestManagerIntegration:
    @pytest.mark.parametrize("period, switch", [(30, 90), (60, 120)])
    def test_window_applies_from_its_first_step(self, period, switch):
        """Every control step clamps to the window in force at its own
        time, whatever the loop's period and wherever the window starts."""
        schedule = ShareSchedule([
            entry(0, switch, 0.5, share(2, 2, 300)),
            entry(switch, 7200, 2.0, share(2, 6, 300)),
        ])
        manager = (
            FlowBuilder("on-time", seed=3)
            .workload(ConstantRate(1500))
            .control(LayerKind.ANALYTICS, controller=_Greedy(), period=period)
            .share_schedule(schedule)
            .build()
        )
        manager.run(switch + 2 * period)
        applied = {
            record.time: record.capacity_applied
            for record in manager.loops[LayerKind.ANALYTICS].records
        }
        assert {switch - period, switch, switch + period} <= set(applied)
        assert applied == {t: 2.0 if t < switch else 6.0 for t in applied}

    def test_scheduled_bounds_switch_at_window_boundary(self):
        schedule = ShareSchedule([
            entry(0, 1800, 0.5, share(2, 2, 300)),
            entry(1800, 7200, 2.0, share(10, 6, 600)),
        ])
        manager = (
            FlowBuilder("scheduled", seed=3)
            .ingestion(shards=2)
            .workload(ConstantRate(3500))  # wants ~6 shards
            .control(LayerKind.INGESTION, style="adaptive")
            .share_schedule(schedule)
            .build()
        )
        result = manager.run(5400)
        shards = result.capacity_trace(LayerKind.INGESTION)
        # First window: capped at 2 despite heavy overload.
        assert shards.slice(0, 1800).maximum() <= 2.0
        # Second window: the cap lifts and the controller scales out.
        assert shards.slice(3000, 5400).maximum() >= 4.0

    def test_schedule_and_static_bounds_conflict(self):
        schedule = ShareSchedule([entry(0, 3600, 1.0, share(2, 2, 300))])
        with pytest.raises(ConfigurationError):
            (
                FlowBuilder()
                .workload(ConstantRate(100))
                .control(LayerKind.INGESTION, style="adaptive")
                .share_bounds({LayerKind.INGESTION: 4})
                .share_schedule(schedule)
                .build()
            )


def _overstepping_run(schedule, inner):
    """A 600 s run whose analytics steps (every 60 s, greedy) reach the
    fleet as ``inner(clamped target)``: the share bound is broken
    behind the bounded actuator's back, and the invariant checker's
    ``bounds.controller`` audit must catch it."""
    manager = (
        FlowBuilder("audited", seed=3)
        .workload(ConstantRate(1500))
        .control(LayerKind.ANALYTICS, controller=_Greedy(), period=60)
        .share_schedule(schedule)
        .build()
    )
    fleet_side = manager.loops[LayerKind.ANALYTICS].actuator.inner
    apply = fleet_side.apply
    fleet_side.apply = lambda target, now: apply(inner(target), now)
    report = manager.run(600).invariants
    details = [v.detail for v in report.samples if v.invariant == "bounds.controller"]
    return report.counts.get("bounds.controller", 0), details


class TestScheduledBoundsAudit:
    def test_one_window_cap_is_audited(self):
        """Three VMs past a one-window cap of 2 at each of the nine
        audited steps: nine violations, as with static share bounds."""
        schedule = ShareSchedule([entry(0, 7200, 0.5, share(2, 2, 300))])
        violations, details = _overstepping_run(schedule, lambda target: target + 3)
        assert violations == 9
        assert details[0] == "analytics: applied 5.0 above cap 2.0 at t=60"

    def test_each_step_is_judged_by_its_own_window(self):
        """Four VMs are inside the first window's cap of 6 and above the
        second window's cap of 2: only the steps from t=300 break it."""
        schedule = ShareSchedule([
            entry(0, 300, 2.0, share(2, 6, 300)),
            entry(300, 7200, 0.5, share(2, 2, 300)),
        ])
        violations, details = _overstepping_run(schedule, lambda target: 4.0)
        assert violations == 5
        assert details == [
            f"analytics: applied 4.0 above cap 2.0 at t={t}" for t in range(300, 600, 60)
        ]
