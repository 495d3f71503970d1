"""Discrete-time simulation engine.

The engine owns a :class:`~repro.simulation.clock.SimClock` and drives
two kinds of work:

* **components** — objects exposing ``on_tick(clock)`` that must run
  every tick, in registration order (workload generator, then the
  services downstream of it, then metric emission);
* **periodic tasks** — callbacks that run every ``interval`` simulated
  seconds (controller invocations, snapshot collection). A task's phase
  offsets its first firing so that, e.g., controllers can be staggered.

The run loop is deliberately simple and allocation-free per tick: this
engine routinely executes hundreds of thousands of ticks inside the
benchmark suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Protocol

from repro.core.errors import SimulationError
from repro.observability.profiler import TickProfiler
from repro.simulation.clock import SimClock


class TickComponent(Protocol):
    """Anything the engine advances once per tick."""

    def on_tick(self, clock: SimClock) -> None:  # pragma: no cover - protocol
        ...


class SpanComponent(Protocol):
    """A component that can process a whole span of ticks at once.

    Between control boundaries the flow's dynamics are a fixed-capacity
    recurrence, so a span-capable component batches the ticks
    ``(clock.now, span_end]`` in one call. The contract mirrors the
    per-tick loop exactly:

    * ``span_horizon(now, limit, tick_seconds)`` returns the latest
      span end the component can accept, at most ``limit``: the last
      tick before any internal state event (pending reshard/rebalance/
      warm-up completion) would change the recurrence's coefficients —
      except events landing on the very next tick, which the component
      resolves itself at span start. Internal events that leave the
      coefficients alone, such as aggregation-window flushes, do not
      bound a span. The returned time must lie on the tick grid.
    * ``run_span(clock, span_end)`` executes ticks ``clock.now + dt ..
      span_end`` (inclusive) without advancing the clock; the engine
      advances it afterwards. Results must be bit-identical to calling
      ``on_tick`` once per tick.
    """

    def on_tick(self, clock: SimClock) -> None:  # pragma: no cover - protocol
        ...

    def span_horizon(
        self, now: int, limit: int, tick_seconds: int
    ) -> int:  # pragma: no cover - protocol
        ...

    def run_span(self, clock: SimClock, span_end: int) -> None:  # pragma: no cover - protocol
        ...


@dataclass
class PeriodicTask:
    """A callback fired every ``interval`` simulated seconds.

    Attributes
    ----------
    interval:
        Simulated seconds between firings; must be a positive multiple
        of the engine's tick length to fire exactly on ticks.
    callback:
        Called with the current simulated time (seconds).
    phase:
        Offset of the first firing from t=0. A task with interval 60 and
        phase 30 fires at t=30, 90, 150, ...
    name:
        Used in error messages and traces.
    """

    interval: int
    callback: Callable[[int], None]
    phase: int = 0
    name: str = "task"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SimulationError(f"task {self.name!r}: interval must be positive")
        if self.phase < 0:
            raise SimulationError(f"task {self.name!r}: phase must be non-negative")

    def due(self, now: int) -> bool:
        """Whether this task fires at simulated second ``now``."""
        if now < self.phase:
            return False
        return (now - self.phase) % self.interval == 0

    def next_due(self, now: int) -> int:
        """Earliest firing time strictly after ``now``.

        This is the task's contribution to the span boundary: the span
        starting just after ``now`` may extend at most to this time, so
        the firing lands exactly on a span end.
        """
        if now < self.phase:
            return self.phase
        return now + self.interval - (now - self.phase) % self.interval


@dataclass
class SimulationEngine:
    """Tick loop over registered components and periodic tasks."""

    clock: SimClock = field(default_factory=SimClock)
    #: Opt-in wall-clock profiler. ``None`` (the default) keeps the
    #: original allocation-free tick loop — the dispatch happens once
    #: per :meth:`run` call, not per tick.
    profiler: TickProfiler | None = None
    #: Batch quiet ticks into spans when every component supports the
    #: :class:`SpanComponent` protocol and no per-tick hooks are
    #: registered; otherwise :meth:`run` silently falls back to the
    #: per-tick reference loop. Disable to force the reference loop.
    span_execution: bool = True
    _components: list[TickComponent] = field(default_factory=list)
    _tasks: list[PeriodicTask] = field(default_factory=list)
    _tick_hooks: list[Callable[[int], None]] = field(default_factory=list)
    _stopped: bool = False
    _labels_cache: dict[int, str] | None = field(default=None, init=False, repr=False)
    #: Whether the most recent :meth:`run` used the span scheduler.
    #: Lets tests assert that registering a component (e.g. a fault
    #: injector) did not silently force the per-tick fallback.
    last_run_used_spans: bool = field(default=False, init=False)

    def add_component(self, component: TickComponent) -> None:
        """Register a component; components run in registration order."""
        self._components.append(component)
        self._labels_cache = None

    def _component_labels(self) -> dict[int, str]:
        """Profiler display labels, cached across :meth:`run` calls."""
        if self._labels_cache is None:
            self._labels_cache = {id(c): type(c).__name__ for c in self._components}
        return self._labels_cache

    def sort_components(self, key: Callable[[TickComponent], int]) -> None:
        """Stable-reorder the registered components by ``key``.

        Multi-flow runs group components by *phase* (the data path, then
        all auditors, then all fault injectors) instead of by flow:
        a fault one flow injects at tick T must become visible to every
        flow's data path only from T+1 — in both per-tick and span
        execution — which requires no injector to run before another
        flow's pipeline within a tick. The sort is stable, so each
        flow's internal order is preserved.
        """
        self._components.sort(key=key)

    def add_task(self, task: PeriodicTask) -> None:
        """Register a periodic task.

        Both ``interval`` and ``phase`` must be multiples of the tick
        length: the loop only evaluates ``due`` at tick boundaries, so a
        misaligned phase (e.g. ``phase=30`` on a 60 s tick) would shift
        every firing time off the tick grid and the task would silently
        never run — a staggered controller would simply be dead.
        """
        if task.interval % self.clock.tick_seconds != 0:
            raise SimulationError(
                f"task {task.name!r}: interval {task.interval}s is not a "
                f"multiple of the tick length {self.clock.tick_seconds}s"
            )
        if task.phase % self.clock.tick_seconds != 0:
            raise SimulationError(
                f"task {task.name!r}: phase {task.phase}s is not a "
                f"multiple of the tick length {self.clock.tick_seconds}s, "
                f"so the task would never fire"
            )
        self._tasks.append(task)

    def every(
        self, interval: int, callback: Callable[[int], None], *, phase: int = 0, name: str = "task"
    ) -> PeriodicTask:
        """Convenience wrapper: build and register a :class:`PeriodicTask`."""
        task = PeriodicTask(interval=interval, callback=callback, phase=phase, name=name)
        self.add_task(task)
        return task

    def on_each_tick(self, hook: Callable[[int], None]) -> None:
        """Register a hook called after all components each tick."""
        self._tick_hooks.append(hook)

    def stop(self) -> None:
        """Request the run loop to stop after the current tick."""
        self._stopped = True

    def run(self, duration_seconds: int) -> int:
        """Run for ``duration_seconds`` of simulated time.

        Each tick executes, in order: every component's ``on_tick``,
        every due periodic task, every tick hook. Tasks see the time of
        the tick that just completed, so a controller with a 60 s period
        acts on metrics covering the full preceding minute.

        Returns the simulated time at which the run stopped.
        """
        if duration_seconds <= 0:
            raise SimulationError(f"duration must be positive, got {duration_seconds}")
        if duration_seconds % self.clock.tick_seconds != 0:
            raise SimulationError(
                f"duration {duration_seconds}s is not a multiple of the "
                f"tick length {self.clock.tick_seconds}s"
            )
        self._stopped = False
        end = self.clock.now + duration_seconds
        self.last_run_used_spans = (
            self.span_execution
            and not self._tick_hooks
            and all(
                hasattr(c, "run_span") and hasattr(c, "span_horizon") for c in self._components
            )
        )
        if self.last_run_used_spans:
            return self._run_spans(end)
        if self.profiler is not None:
            return self._run_profiled(end)
        while self.clock.now < end and not self._stopped:
            now = self.clock.advance()
            for component in self._components:
                component.on_tick(self.clock)
            for task in self._tasks:
                if task.due(now):
                    task.callback(now)
            for hook in self._tick_hooks:
                hook(now)
        return self.clock.now

    def _run_spans(self, end: int) -> int:
        """Span scheduler: batch the quiet ticks between control boundaries.

        Each iteration computes the next boundary — the earliest of the
        run end, any task's next firing, and any component's span
        horizon (pending capacity events, chaos transitions) — then
        hands every component the whole span ``(now, boundary]`` in
        one ``run_span`` call, advances the clock, and fires the tasks
        due at the boundary. Because every task firing time is itself a
        boundary, tasks fire at exactly the times the per-tick loop
        would fire them, observing exactly the same service and metric
        state.

        Task firings come from a **boundary calendar**: a min-heap of
        ``(next firing, registration index, task)`` keeps the upcoming
        due-ticks sorted, so each boundary costs one heap peek instead
        of a full ``next_due`` scan over every task, and a fleet of
        quiet flows stops paying for the busy flows' boundaries. The
        registration index breaks ties so tasks sharing a boundary fire
        in registration order, exactly like the per-tick loop.
        """
        profiler = self.profiler
        labels = self._component_labels()
        dt = self.clock.tick_seconds
        minimum = dt  # a span is never shorter than one tick
        now = self.clock.now
        calendar = [(task.next_due(now), seq, task) for seq, task in enumerate(self._tasks)]
        heapq.heapify(calendar)
        task_count = len(self._tasks)
        while self.clock.now < end and not self._stopped:
            now = self.clock.now
            boundary = calendar[0][0] if calendar else end
            if boundary > end:
                boundary = end
            for component in self._components:
                horizon = component.span_horizon(now, boundary, dt)
                if horizon < boundary:
                    boundary = horizon
            if boundary < now + minimum:
                boundary = now + minimum
            if profiler is not None:
                span_started = perf_counter()
                for component in self._components:
                    started = perf_counter()
                    component.run_span(self.clock, boundary)
                    profiler.record_component(labels[id(component)], perf_counter() - started)
                self.clock.advance_to(boundary)
                while calendar and calendar[0][0] <= boundary:
                    _due, seq, task = heapq.heappop(calendar)
                    started = perf_counter()
                    task.callback(boundary)
                    profiler.record_task(task.name, perf_counter() - started)
                    heapq.heappush(calendar, (task.next_due(boundary), seq, task))
                profiler.record_span((boundary - now) // dt, perf_counter() - span_started)
            else:
                for component in self._components:
                    component.run_span(self.clock, boundary)
                self.clock.advance_to(boundary)
                while calendar and calendar[0][0] <= boundary:
                    _due, seq, task = heapq.heappop(calendar)
                    task.callback(boundary)
                    heapq.heappush(calendar, (task.next_due(boundary), seq, task))
            if len(self._tasks) > task_count:
                # A callback registered new tasks mid-run: enter them
                # into the calendar from the boundary they appeared at.
                for seq in range(task_count, len(self._tasks)):
                    task = self._tasks[seq]
                    heapq.heappush(calendar, (task.next_due(boundary), seq, task))
                task_count = len(self._tasks)
        return self.clock.now

    def _run_profiled(self, end: int) -> int:
        """The same tick loop, timed per component, task and whole tick."""
        profiler = self.profiler
        labels = self._component_labels()
        while self.clock.now < end and not self._stopped:
            now = self.clock.advance()
            tick_started = perf_counter()
            for component in self._components:
                started = perf_counter()
                component.on_tick(self.clock)
                profiler.record_component(labels[id(component)], perf_counter() - started)
            for task in self._tasks:
                if task.due(now):
                    started = perf_counter()
                    task.callback(now)
                    profiler.record_task(task.name, perf_counter() - started)
            for hook in self._tick_hooks:
                hook(now)
            profiler.record_tick(perf_counter() - tick_started)
        return self.clock.now
