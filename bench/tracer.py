"""Outside-in tracing: time calls into each layer's public methods.

The traced pass wraps methods on the *built* objects before ``run`` —
the program itself is not changed. Each wrapper measures its call's
wall time and subtracts the time of traced calls made inside it, so
every traced second lands in exactly one layer's **self time**. The
wrappers sit at span granularity (a generator's ``generate_span``, a
service's ``emit_metrics_span``, a sensor's ``measure``), never per
tick or per store write, which keeps the overhead near the ~10% the
README records.

Two layers are read from the engine's own ``TickProfiler`` (attached
through the public ``engine.profiler`` field) instead of wrappers,
because the engine holds their callbacks directly: the fleet
coordinator's task time, and the snapshot task's time minus its traced
``collect`` call (the telemetry sampling). ``simulation.engine_s`` is
what no layer claims: the traced wall minus every self time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

import numpy as np

#: Unit of every per-layer metric the traced pass reports.
LAYER_UNITS: dict[str, str] = {
    "workload.draw_s": "s",
    "workload.draw_share": "ratio",
    "workload.us_per_flow_tick": "us",
    "core.datapath_s": "s",
    "core.pipeline.self_s": "s",
    "core.fleet_exec.self_s": "s",
    "core.scalar_tick_share": "ratio",
    "cloud.kinesis.emit_s": "s",
    "cloud.storm.emit_s": "s",
    "cloud.dynamodb.emit_s": "s",
    "cloud.cloudwatch.read_s": "s",
    "cloud.cloudwatch.read_calls": "count",
    "cloud.cloudwatch.flush_s": "s",
    "control.sense_s": "s",
    "control.decide_s": "s",
    "control.actuate_s": "s",
    "control.steps": "count",
    "control.actions": "count",
    "control.clamps": "count",
    "control.failed_attempts": "count",
    "core.fleet.coordinate_s": "s",
    "core.fleet.retargets": "count",
    "cloud.region.denials": "count",
    "chaos.invariants_s": "s",
    "chaos.injector_s": "s",
    "chaos.violations": "count",
    "monitoring.collect_s": "s",
    "observability.telemetry_s": "s",
    "observability.events_s": "s",
    "analysis.scorecard_s": "s",
    "scenarios.compile_s": "s",
    "simulation.engine_s": "s",
    "simulation.spans": "count",
    "simulation.ticks_per_span": "ticks",
    "simulation.period_ms.p50": "ms",
    "simulation.period_ms.p90": "ms",
    "simulation.period_ms.p99": "ms",
    "simulation.period_samples": "count",
    "trace.overhead_ratio": "ratio",
}

#: Wrapped layer -> the self-time metric it reports as.
_SELF_METRICS = {
    "workload": "workload.draw_s",
    "core.pipeline": "core.pipeline.self_s",
    "core.fleet_exec": "core.fleet_exec.self_s",
    "cloud.kinesis": "cloud.kinesis.emit_s",
    "cloud.storm": "cloud.storm.emit_s",
    "cloud.dynamodb": "cloud.dynamodb.emit_s",
    "cloud.cloudwatch.read": "cloud.cloudwatch.read_s",
    "cloud.cloudwatch.flush": "cloud.cloudwatch.flush_s",
    "control.sense": "control.sense_s",
    "control.decide": "control.decide_s",
    "control.actuate": "control.actuate_s",
    "chaos.invariants": "chaos.invariants_s",
    "chaos.injector": "chaos.injector_s",
    "monitoring.collect": "monitoring.collect_s",
    "observability.events": "observability.events_s",
    "analysis.scorecard": "analysis.scorecard_s",
    "scenarios.compile": "scenarios.compile_s",
}

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


class Tracer:
    """Self-time accounting over wrapped calls, kept in memory."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: Wall time of calls made with no traced caller: the union of
        #: traced intervals, which the self times must add up to.
        self.top_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Ticks executed by the scalar per-flow recurrence.
        self.scalar_ticks = 0
        #: Wall-clock stamps of each run's control-period boundaries.
        self.period_marks: list[list[float]] = []
        self._stack = [0.0]

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` timed as ``layer`` (traced callees subtracted)."""
        stack = self._stack
        stack.append(0.0)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            self.self_s[layer] += elapsed - stack.pop()
            if len(stack) == 1:
                self.top_s[layer] += elapsed
            stack[-1] += elapsed
            self.calls[layer] += 1

    def wrap(self, obj, attr: str, layer: str, before=None) -> None:
        """Replace ``obj.attr`` with a timed wrapper attributed to ``layer``.

        ``before(*args, **kwargs)`` runs ahead of each call, outside its
        timed interval (tick counting, period stamps).
        """
        inner = getattr(obj, attr)
        call = self.call

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            return call(layer, inner, *args, **kwargs)

        setattr(obj, attr, traced)

    def start_periods(self):
        """Open a new run's period-stamp list; returns the stamping hook."""
        marks: list[float] = []
        self.period_marks.append(marks)
        return lambda *_args, **_kwargs: marks.append(perf_counter())

    def count_scalar_ticks(self, clock, span_end, *_args, **_kwargs) -> None:
        self.scalar_ticks += (span_end - clock.now) // clock.tick_seconds

    def period_ms(self) -> list[float]:
        """Wall milliseconds of every simulated control period traced."""
        out: list[float] = []
        for marks in self.period_marks:
            out.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
        return out


# ----------------------------------------------------------------------
# Attaching the tracer to built objects
# ----------------------------------------------------------------------


def instrument_flow(manager, tracer: Tracer):
    """Wrap one flow's layers; returns the ``TickProfiler`` attached."""
    from repro.observability.profiler import TickProfiler

    _wrap_flow_layers(manager, tracer, mark_periods=True)
    manager.engine.profiler = TickProfiler()
    return manager.engine.profiler


def instrument_fleet(fleet, tracer: Tracer):
    """Wrap every flow of a region fleet plus its batched executor."""
    from repro.core.fleet_exec import FleetSpanExecutor
    from repro.observability.profiler import TickProfiler

    for i, manager in enumerate(fleet.managers.values()):
        _wrap_flow_layers(manager, tracer, mark_periods=i == 0)
    # The fleet does not expose its executor; it is an engine component.
    for component in fleet.engine._components:
        if isinstance(component, FleetSpanExecutor):
            tracer.wrap(component, "run_span", "core.fleet_exec")
    fleet.engine.profiler = TickProfiler()
    return fleet.engine.profiler


def _wrap_flow_layers(manager, tracer: Tracer, *, mark_periods: bool) -> None:
    tracer.wrap(manager.generator, "generate_span", "workload")
    tracer.wrap(manager._pipeline, "run_span", "core.pipeline", before=tracer.count_scalar_ticks)
    tracer.wrap(manager.stream, "emit_metrics_span", "cloud.kinesis")
    tracer.wrap(manager.cluster, "emit_metrics_span", "cloud.storm")
    tracer.wrap(manager.table, "emit_metrics_span", "cloud.dynamodb")
    cloudwatch = manager.cloudwatch
    tracer.wrap(cloudwatch, "get_metric_value", "cloud.cloudwatch.read")
    tracer.wrap(cloudwatch, "get_metric_statistics", "cloud.cloudwatch.read")
    tracer.wrap(cloudwatch, "flush_pending", "cloud.cloudwatch.flush")
    loops = list(manager.loops.values())
    if manager.read_loop is not None:
        loops.append(manager.read_loop)
    for i, loop in enumerate(loops):
        stamp = tracer.start_periods() if mark_periods and i == 0 else None
        tracer.wrap(loop.sensor, "measure", "control.sense", before=stamp)
        tracer.wrap(loop.controller, "compute", "control.decide")
        tracer.wrap(loop.actuator, "apply", "control.actuate")
    tracer.wrap(manager.collector, "collect", "monitoring.collect")
    if manager.invariant_checker is not None:
        tracer.wrap(manager.invariant_checker, "run_span", "chaos.invariants")
        tracer.wrap(manager.invariant_checker, "audit", "chaos.invariants")
    if manager.chaos_injector is not None:
        tracer.wrap(manager.chaos_injector, "run_span", "chaos.injector")
    if manager.recorder is not None:
        tracer.wrap(manager.recorder.bus, "publish", "observability.events")
        tracer.wrap(manager.recorder.decisions, "record", "observability.events")


# ----------------------------------------------------------------------
# From raw timings to the per-layer metrics
# ----------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile, refusing a tail the sample cannot support.

    For ``q`` above 50 at least :data:`TAIL_SAMPLES` samples must lie
    beyond the percentile's rank; otherwise ``ValueError`` is raised.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if q > 50 and n - math.ceil(q * n / 100) < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs at least {TAIL_SAMPLES} samples beyond it; n={n} gives "
            f"{n - math.ceil(q * n / 100)}"
        )
    return float(np.percentile(samples, q))


def tail_percentiles(samples, candidates=(90, 99)) -> dict[str, float]:
    """Every candidate tail percentile the sample supports, by label."""
    out = {}
    for q in candidates:
        try:
            out[f"p{q}"] = percentile(samples, q)
        except ValueError:
            pass
    return out


def layer_metrics(
    tracer: Tracer,
    profilers,
    *,
    wall_s: float,
    flow_ticks: int,
    managers,
    coordinator=None,
    region=None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run, plus the fidelity check.

    ``wall_s`` is the traced wall the layers partition; ``managers``
    are the flows whose telemetry counters and invariant reports feed
    the count metrics. Returns ``(metrics, check)``; see
    :func:`fidelity` for the check.
    """
    self_s = tracer.self_s
    # Tail percentiles appear only when the sample supports them.
    metrics = {
        name: 0.0
        for name in LAYER_UNITS
        if name != "trace.overhead_ratio" and not name.startswith("simulation.period_")
    }
    for layer, name in _SELF_METRICS.items():
        metrics[name] = self_s.get(layer, 0.0)
    metrics["cloud.cloudwatch.read_calls"] = tracer.calls.get("cloud.cloudwatch.read", 0)

    snapshot_s = coordinate_s = component_s = 0.0
    spans = ticks = 0
    for profiler in profilers:
        component_s += sum(profiler.component_seconds.values())
        for task, seconds in profiler.task_seconds.items():
            if task.endswith("snapshots"):
                snapshot_s += seconds
            elif task == "fleet.coordinator":
                coordinate_s += seconds
        spans += profiler.span_count
        ticks += profiler.tick_count
    metrics["observability.telemetry_s"] = snapshot_s - tracer.top_s.get("monitoring.collect", 0.0)
    metrics["core.fleet.coordinate_s"] = coordinate_s

    claimed = sum(self_s.values()) + metrics["observability.telemetry_s"] + coordinate_s
    metrics["simulation.engine_s"] = wall_s - claimed
    metrics["simulation.spans"] = spans
    metrics["simulation.ticks_per_span"] = ticks / spans if spans else 0.0
    periods = tracer.period_ms()
    if periods:
        metrics["simulation.period_ms.p50"] = float(np.median(periods))
    for label, value in tail_percentiles(periods).items():
        metrics[f"simulation.period_ms.{label}"] = value
    metrics["simulation.period_samples"] = len(periods)

    metrics["workload.draw_share"] = metrics["workload.draw_s"] / wall_s
    metrics["workload.us_per_flow_tick"] = 1e6 * metrics["workload.draw_s"] / flow_ticks
    metrics["core.datapath_s"] = metrics["core.pipeline.self_s"] + metrics["core.fleet_exec.self_s"]
    metrics["core.scalar_tick_share"] = tracer.scalar_ticks / flow_ticks

    for manager in managers:
        telemetry = manager.telemetry
        for key, value in telemetry.counters.items():
            if not key.startswith("control."):
                continue
            if key.endswith((".decisions", ".skipped")):
                metrics["control.steps"] += value
            elif key.endswith(".actions"):
                metrics["control.actions"] += value
            elif key.endswith(".clamps"):
                metrics["control.clamps"] += value
        metrics["control.failed_attempts"] += sum(
            value for key, value in telemetry.gauges.items() if key.endswith(".failed_attempts")
        )
        if manager.invariant_checker is not None:
            metrics["chaos.violations"] += manager.invariant_checker.report().total_violations
    if coordinator is not None:
        metrics["core.fleet.retargets"] = coordinator.retargets
    if region is not None:
        metrics["cloud.region.denials"] = region.total_denials()

    return metrics, fidelity(tracer, wall_s=wall_s, claimed_s=claimed, component_s=component_s)


#: Layers whose outermost calls are the engine's own component calls.
_COMPONENT_LAYERS = ("core.pipeline", "core.fleet_exec", "chaos.invariants", "chaos.injector")

#: Largest share of the traced wall by which the accounting may be off.
FIDELITY_TOLERANCE = 0.02


def fidelity(tracer: Tracer, *, wall_s: float, claimed_s: float, component_s: float) -> dict:
    """Check that the layers partition the traced wall.

    Three conditions, each within :data:`FIDELITY_TOLERANCE` of the wall:

    * the self times add up to the union of traced intervals (no
      interval is counted twice or dropped between nested wrappers);
    * the engine's own profiler, timing its component calls from the
      inside, agrees with the tracer's outermost component calls (no
      data-path work escapes the wrappers);
    * the claimed self times do not exceed the wall, so
      ``simulation.engine_s`` is not negative and Σ self +
      ``simulation.engine_s`` is the traced wall.
    """
    self_sum = sum(tracer.self_s.values())
    covered = sum(tracer.top_s.values())
    traced_components = sum(tracer.top_s.get(layer, 0.0) for layer in _COMPONENT_LAYERS)
    check = {
        "wall_s": wall_s,
        "self_vs_covered": abs(self_sum - covered) / wall_s,
        "components_vs_profiler": abs(component_s - traced_components) / wall_s,
        "engine_share": (wall_s - claimed_s) / wall_s,
    }
    check["ok"] = (
        check["self_vs_covered"] <= FIDELITY_TOLERANCE
        and check["components_vs_profiler"] <= FIDELITY_TOLERANCE
        and check["engine_share"] >= -FIDELITY_TOLERANCE
    )
    return check
