"""Time-windowed resource share schedules.

Paper Sec. 2: "The resource shares can be determined with respect to
arbitrary time windows." A workload with a known daily shape does not
need one set of upper bounds for the whole day — the budget can be
split across windows (cheap night window, generous evening-peak
window), each solved as its own Eq. 3–5 problem.

:class:`BudgetWindow` describes one window; the analyzer's
``analyze_windows`` solves each and returns a :class:`ShareSchedule`
that the elasticity manager can follow at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.runner import SweepCase, run_scenarios
from repro.core.errors import OptimizationError
from repro.core.flow import LayerKind
from repro.optimization.share_analyzer import (
    ResourceShare,
    ResourceShareAnalyzer,
    ShareAnalysisResult,
)


@dataclass(frozen=True)
class BudgetWindow:
    """A time window with its own hourly budget.

    ``start``/``end`` are simulated seconds; windows of a schedule must
    be contiguous and non-overlapping.
    """

    start: int
    end: int
    budget_per_hour: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise OptimizationError(f"window end ({self.end}) must be after start ({self.start})")
        if self.budget_per_hour <= 0:
            raise OptimizationError("budget must be positive")

    def contains(self, t: int) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class ScheduledShare:
    """One window's solved share analysis and the share picked from it."""

    window: BudgetWindow
    result: ShareAnalysisResult
    picked: ResourceShare


class ShareSchedule:
    """Per-window resource shares, queryable by simulated time."""

    def __init__(self, entries: list[ScheduledShare]) -> None:
        if not entries:
            raise OptimizationError("a schedule needs at least one window")
        ordered = sorted(entries, key=lambda e: e.window.start)
        for previous, current in zip(ordered, ordered[1:]):
            if current.window.start < previous.window.end:
                raise OptimizationError(
                    f"windows overlap: [{previous.window.start}, {previous.window.end}) "
                    f"and [{current.window.start}, {current.window.end})"
                )
            if current.window.start != previous.window.end:
                raise OptimizationError(
                    f"gap between windows at t={previous.window.end}"
                )
        self._entries = ordered

    @property
    def entries(self) -> list[ScheduledShare]:
        return list(self._entries)

    @property
    def span(self) -> tuple[int, int]:
        return self._entries[0].window.start, self._entries[-1].window.end

    def share_at(self, t: int) -> ResourceShare:
        """The picked share of the window covering ``t``.

        Before the first window the first share applies; after the last
        window the last one does (schedules are typically repeated, so
        the edges hold their nearest plan).
        """
        for entry in self._entries:
            if entry.window.contains(t):
                return entry.picked
        if t < self._entries[0].window.start:
            return self._entries[0].picked
        return self._entries[-1].picked

    def bounds_at(self, t: int) -> dict[LayerKind, int]:
        """The per-layer upper bounds in force at ``t``."""
        return self.share_at(t).as_dict()

    def table(self) -> str:
        """Render the schedule's windows, budgets and picked shares."""
        header = f"{'window':>18}  {'$/h':>6}  {'plans':>5}  picked (I, A, S)"
        lines = [header, "-" * len(header)]
        for entry in self._entries:
            window = f"[{entry.window.start:>7}, {entry.window.end:>7})"
            lines.append(
                f"{window:>18}  {entry.window.budget_per_hour:>6.2f}  "
                f"{len(entry.result):>5}  {entry.picked}"
            )
        return "\n".join(lines)


def _solve_window(
    analyzer: ResourceShareAnalyzer,
    window: BudgetWindow,
    pick: str,
    population_size: int,
    generations: int,
    window_seed: int,
    pick_seed: int,
) -> ScheduledShare:
    """One window's Eq. 3–5 solve (module-level so workers can pickle it)."""
    result = analyzer.analyze(
        budget_per_hour=window.budget_per_hour,
        population_size=population_size,
        generations=generations,
        seed=window_seed,
    )
    return ScheduledShare(window=window, result=result, picked=result.pick(pick, seed=pick_seed))


def analyze_windows(
    analyzer: ResourceShareAnalyzer,
    windows: list[BudgetWindow],
    pick: str = "balanced",
    population_size: int = 80,
    generations: int = 150,
    seed: int = 0,
    jobs: int = 1,
) -> ShareSchedule:
    """Solve Eq. 3–5 per window and assemble the schedule.

    Each window is solved with a seed derived from the base seed and
    the window index, so schedules are reproducible yet windows are
    searched independently. ``jobs > 1`` fans the per-window NSGA-II
    solves across worker processes; the schedule is identical to the
    serial one (each window's seed depends only on its index).
    """
    if not windows:
        raise OptimizationError("need at least one budget window")
    scenarios = [
        SweepCase(
            name=f"window-{index}",
            fn=_solve_window,
            kwargs=dict(
                analyzer=analyzer,
                window=window,
                pick=pick,
                population_size=population_size,
                generations=generations,
                window_seed=seed * 1000 + index,
                pick_seed=seed,
            ),
        )
        for index, window in enumerate(windows)
    ]
    return ShareSchedule(run_scenarios(scenarios, jobs=jobs))
