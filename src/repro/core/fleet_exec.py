"""Fleet span execution: N flows as one engine component.

A region fleet runs every flow on one shared engine. Registering the N
flow pipelines as N engine components would make every flow's capacity
event a boundary of the *shared* span: a 16-flow fleet would fragment
all sixteen recurrences at every single flow's boot, reshard and
capacity-update tick. :class:`FleetSpanExecutor` is instead the fleet's
one data-path component. Its ``span_horizon`` accepts the whole global
span (task firings, chaos faults and the run end still bound it), and
its ``run_span`` splits **each flow at that flow's own capacity events**
by the pipeline's ``span_horizon`` contract, running every sub-span
through the one span path, ``_FlowPipeline.run_span``. Quiet flows stop
fragmenting at busy flows' events.

Why per-flow results stay bit-identical to the per-tick loop (the span
execution contract, DESIGN.md):

* splitting a flow's span at another flow's boundary never changes its
  results — the recurrence coefficients are identical on both halves,
  batched RNG draws are bit-identical elementwise however they are
  segmented, and window/burst accumulators are integer-valued floats
  below 2**53, so their partial sums associate exactly;
* region contention is constant inside any span (committed instance
  counts change only at control/chaos boundaries, which always bound
  the global span), so absorbing per-flow events cannot leak one
  flow's mid-span capacity change into another flow's coefficients;
* per-flow RNG streams are disjoint and flows execute in component
  (spec) order, so running them one after another never reorders any
  stream's draws.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.manager import _FlowPipeline


class _SpanClock:
    """Minimal clock view handed to a flow's sub-spans.

    ``_FlowPipeline.run_span`` reads only ``now`` and ``tick_seconds``;
    the executor walks per-flow sub-spans inside one engine span, so
    the real clock (which the engine advances once per *global* span)
    cannot be used directly.
    """

    __slots__ = ("now", "tick_seconds")

    def __init__(self, now: int, tick_seconds: int) -> None:
        self.now = now
        self.tick_seconds = tick_seconds


class FleetSpanExecutor:
    """One engine component executing every flow's data path.

    ``flows`` is the ordered list of ``(flow_name, _FlowPipeline)``
    pairs; the executor runs them in that order, in per-tick and span
    execution alike, so each flow's RNG streams, cloudwatch store and
    event bus see exactly the per-tick loop's sequence.
    """

    def __init__(
        self,
        flows: list[tuple[str, _FlowPipeline]],
        engine=None,
        checkers=None,
    ) -> None:
        self._flows = list(flows)
        self._engine = engine
        # Per-flow invariant checkers: their cost integration assumes
        # every capacity change lands on a check boundary, and absorbing
        # per-flow events moved those changes off the global span — so
        # the executor audits each flow at its own sub-span boundaries.
        self._checkers = dict(checkers or {})
        # Same-class, same-distinct-law generators pool their
        # expected-distinct memos (the exact path's dict, the fast
        # path's dense table): the values are pure functions of the
        # record count, so whichever flow computes one first saves
        # every other flow the occupancy sum.
        for i, (_, pipeline) in enumerate(self._flows):
            for _, other in self._flows[:i]:
                if pipeline.generator.adopt_distinct_cache(other.generator):
                    break

    def on_tick(self, clock) -> None:
        """Per-tick reference: delegate to each pipeline in order."""
        for _, pipeline in self._flows:
            pipeline.on_tick(clock)

    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        """Accept the whole global span.

        Per-flow capacity events do not bound the *shared* span —
        :meth:`run_span` splits each flow at its own events. Only
        cross-flow state changes must stay on global boundaries, and
        those (task firings, chaos faults, run end) are boundaries of
        their own.
        """
        return limit

    def run_span(self, clock, span_end: int) -> None:
        profiler = self._engine.profiler if self._engine is not None else None
        now = clock.now
        dt = clock.tick_seconds
        for name, pipeline in self._flows:
            started = perf_counter() if profiler is not None else 0.0
            checker = self._checkers.get(name)
            t = now
            shim = _SpanClock(t, dt)
            while t < span_end:
                horizon = pipeline.span_horizon(t, span_end, dt)
                if horizon < t + dt:
                    horizon = t + dt
                shim.now = t
                pipeline.run_span(shim, horizon)
                t = horizon
                # The flow's capacities change exactly at its sub-span
                # boundaries; audit here so the checker's piecewise
                # cost integration stays exact. The final boundary is
                # the global span end, where the checker's own engine
                # slot audits (after every flow has finished).
                if checker is not None and t < span_end:
                    checker.audit(t)
            if profiler is not None:
                profiler.record_flow(name, perf_counter() - started)
