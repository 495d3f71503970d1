"""Turns a :class:`ChaosSchedule` into service-state transitions.

The injector is an engine component registered *after* the pipeline
(faults observed at tick T take effect from T+1, exactly like real
infrastructure failing between polling intervals) and it is fully
span-compatible: each pending transition's due tick bounds the span,
so a fault lands at precisely the tick the per-tick reference loop
would apply it — span and tick runs stay bit-identical with chaos
enabled. A worker crash needs nothing more: the next span's capacity
hoist reads the post-crash VM count, and where that count starts a
topology rebalance the pipeline's own horizon runs its tick alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.cloudwatch import SimCloudWatch
from repro.cloud.dynamodb import SimDynamoDBTable
from repro.cloud.ec2 import InstanceState, SimEC2Fleet
from repro.cloud.kinesis import SimKinesisStream
from repro.cloud.storm import SimStormCluster
from repro.chaos.schedule import POINT_FAULTS, ChaosSchedule, FaultKind, FaultSpec
from repro.observability.events import EventBus
from repro.simulation.clock import SimClock
from repro.simulation.rng import derive_rng


@dataclass(frozen=True)
class ChaosEvent:
    """One applied fault transition, for post-hoc inspection.

    ``phase`` is ``inject`` when a fault window opens (or a point fault
    fires) and ``clear`` when it closes. Seed-determinism tests compare
    whole lists of these for equality.

    ``trace`` is the fault's causal trace id
    (``fault:<kind>@<start>``) — shared by the inject and clear
    transitions and by every bus event the fault caused, so MTTR is
    attributable per fault. It derives from the schedule (not the
    apply tick), so span and per-tick runs produce identical events.
    """

    time: int
    fault: str
    layer: str
    phase: str
    detail: str = ""
    trace: str | None = None


@dataclass
class ChaosInjector:
    """Applies a schedule's transitions at their due ticks."""

    schedule: ChaosSchedule
    stream: SimKinesisStream
    cluster: SimStormCluster
    fleet: SimEC2Fleet
    table: SimDynamoDBTable
    cloudwatch: SimCloudWatch
    events: list[ChaosEvent] = field(default_factory=list)
    bus: EventBus | None = None

    def __post_init__(self) -> None:
        self._rng = derive_rng(self.schedule.seed, "chaos")
        # (time, clear-before-inject, spec order) — a window closing and
        # another opening at the same second apply in close-then-open
        # order, so back-to-back same-kind windows hand over cleanly.
        transitions: list[tuple[int, int, int, str, FaultSpec]] = []
        for index, spec in enumerate(self.schedule.faults):
            transitions.append((spec.start, 1, index, "inject", spec))
            if spec.kind not in POINT_FAULTS:
                transitions.append((spec.end, 0, index, "clear", spec))
        transitions.sort(key=lambda t: t[:3])
        self._transitions = transitions
        self._cursor = 0

    # ------------------------------------------------------------------
    # Engine component protocol (tick + span)
    # ------------------------------------------------------------------
    def on_tick(self, clock: SimClock) -> None:
        self._apply_due(clock.now)

    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        if self._cursor >= len(self._transitions):
            return limit
        t = self._transitions[self._cursor][0]
        if t <= now:
            due = now + tick_seconds
        else:
            due = now + tick_seconds * -(-(t - now) // tick_seconds)
        return min(limit, due)

    def run_span(self, clock: SimClock, span_end: int) -> None:
        # span_horizon bounded the span at the first due tick, so every
        # transition with time <= span_end lands exactly there — the
        # same tick the per-tick loop would apply it at.
        self._apply_due(span_end)

    def _apply_due(self, now: int) -> None:
        transitions = self._transitions
        n = len(transitions)
        while self._cursor < n and transitions[self._cursor][0] <= now:
            _, _, _, phase, spec = transitions[self._cursor]
            self._cursor += 1
            self._apply(phase, spec, now)

    # ------------------------------------------------------------------
    # Per-kind transitions
    # ------------------------------------------------------------------
    def _apply(self, phase: str, spec: FaultSpec, now: int) -> None:
        """Apply one transition inside the fault's causal trace context,
        so any event a service publishes while the fault lands (forced
        rebalances, stalled reshards) joins the fault's chain."""
        trace = f"fault:{spec.kind.value}@{spec.start}"
        if self.bus is not None:
            self.bus.begin_trace(trace)
        try:
            self._transition(phase, spec, now, trace)
        finally:
            if self.bus is not None:
                self.bus.end_trace()

    def _transition(self, phase: str, spec: FaultSpec, now: int, trace: str) -> None:
        kind = spec.kind
        detail = ""
        if kind is FaultKind.RESHARD_STALL:
            if phase == "inject":
                self.stream.set_reshard_stall(spec.intensity)
                extended = self.stream.stall_inflight_reshard(now)
                detail = f"factor={spec.intensity}" + (
                    f" inflight_ready_at={extended}" if extended is not None else ""
                )
            else:
                self.stream.clear_reshard_stall()
        elif kind is FaultKind.SHARD_BROWNOUT:
            if phase == "inject":
                self.stream.set_brownout(spec.intensity)
                detail = f"capacity_lost={spec.intensity}"
            else:
                self.stream.clear_brownout()
        elif kind is FaultKind.WORKER_CRASH:
            victims = self._crash_workers(int(spec.intensity), now)
            detail = "instances=" + ",".join(victims)
            if victims:
                # The crash changes the running VM count without any
                # controller involvement; the rebalance it triggers
                # belongs to the fault's chain, not a decision's.
                self.fleet.last_change_trace = trace
        elif kind is FaultKind.REBALANCE_FAIL:
            if phase == "inject":
                until = self.cluster.force_rebalance(now, spec.duration)
                detail = f"until={until}"
            # The cluster clears itself when the window lapses; the
            # clear transition only records the timeline event.
        elif kind is FaultKind.THROTTLE_STORM:
            if phase == "inject":
                self.table.set_throttle_storm(spec.intensity)
                detail = f"capacity_lost={spec.intensity}"
            else:
                self.table.clear_throttle_storm()
        elif kind is FaultKind.UPDATE_REJECT:
            if phase == "inject":
                self.table.fail_updates()
            else:
                self.table.restore_updates()
        elif kind is FaultKind.METRIC_DELAY:
            if phase == "inject":
                self.cloudwatch.sensor_delay_seconds = int(spec.intensity)
                detail = f"delay={int(spec.intensity)}"
            else:
                self.cloudwatch.sensor_delay_seconds = 0
        elif kind is FaultKind.METRIC_DROPOUT:
            self.cloudwatch.sensor_dropout = phase == "inject"
        self.events.append(
            ChaosEvent(
                time=now, fault=kind.value, layer=spec.layer, phase=phase,
                detail=detail, trace=trace,
            )
        )
        if self.bus is not None:
            payload: dict[str, object] = {"fault": kind.value}
            if spec.intensity:
                payload["intensity"] = spec.intensity
            if detail:
                payload["detail"] = detail
            self.bus.publish(
                now,
                spec.layer,
                "fault.inject" if phase == "inject" else "fault.clear",
                payload,
            )

    def _crash_workers(self, count: int, now: int) -> list[str]:
        """Kill ``count`` seeded-random running VMs; returns their ids."""
        running = self.fleet.instances(now, InstanceState.RUNNING)
        count = min(count, len(running))
        if count == 0:
            return []
        order = sorted(running, key=lambda i: (i.launched_at, i.instance_id))
        picks = self._rng.choice(len(order), size=count, replace=False)
        victims = [order[int(i)].instance_id for i in sorted(int(i) for i in picks)]
        for victim in victims:
            self.fleet.fail_instance(victim, now)
        return victims
