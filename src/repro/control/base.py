"""Controller, sensor and actuator abstractions.

Flower's controllers are "equipped with two key components: sensor and
actuator. The sensor module is responsible for providing resource usage
stats as per the specified monitoring window. The actuator is capable
of executing the controllers' commands, such as adding or removing VMs
and increasing or decreasing number of Shards." (Sec. 2)

The :class:`ControlLoop` glues the three together at a monitoring
period and records every decision, which is what the dashboards and the
evaluation metrics consume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.core.errors import ControlError
from repro.observability.decisions import ControlDecision, DecisionLog
from repro.observability.events import EventBus


class Sensor(ABC):
    """Provides the controlled variable ``y_k`` (e.g. CPU utilisation)."""

    #: Optional flight-recorder hooks; set via :meth:`instrument`. Class
    #: attributes so uninstrumented sensors pay a single attribute
    #: lookup and no per-instance state.
    _bus: EventBus | None = None
    _bus_layer: str = ""

    @abstractmethod
    def measure(self, now: int) -> float | None:
        """The aggregated measurement over the monitoring window ending
        at ``now``, or None if no data is available yet."""

    def instrument(self, bus: EventBus, layer: str) -> None:
        """Publish sensing anomalies (degraded reads, recoveries) to a
        flight-recorder event bus under the given layer label."""
        self._bus = bus
        self._bus_layer = layer


class Actuator(ABC):
    """Reads and writes the manipulated variable ``u_k`` (capacity)."""

    #: Optional flight-recorder hooks; set via :meth:`instrument`. Class
    #: attributes so uninstrumented actuators pay a single attribute
    #: lookup and no per-instance state.
    _bus: EventBus | None = None
    _bus_layer: str = ""

    @abstractmethod
    def get(self, now: int) -> float:
        """Current capacity set-point."""

    @abstractmethod
    def apply(self, target: float, now: int) -> float:
        """Request a new capacity; returns the value actually applied
        (after clamping to service limits, rounding, in-flight checks)."""

    def instrument(self, bus: EventBus, layer: str) -> None:
        """Publish actuation anomalies (clamps, rejected updates) to a
        flight-recorder event bus under the given layer label."""
        self._bus = bus
        self._bus_layer = layer

    def _publish_adjusted(self, now: int, requested: float, actual: float) -> None:
        """Record that the service altered a command (limit clamp, or a
        rejection while a previous change was still in flight)."""
        if self._bus is not None:
            self._bus.publish(
                now,
                self._bus_layer,
                "actuation.adjusted",
                {"requested": requested, "actual": actual},
            )


class Controller(ABC):
    """Maps (current capacity, measurement) to the next capacity."""

    @abstractmethod
    def compute(self, u_current: float, y_measured: float, now: int) -> float:
        """Eq. 6's ``u_{k+1}`` given ``u_k`` and ``y_k``."""

    def reset(self) -> None:
        """Forget internal state (gain history, estimators, cooldowns)."""

    def explain(self) -> dict[str, object]:
        """Introspection payload for the last :meth:`compute` call.

        Concrete controllers return the Eq. 6–7 internals the decision
        audit log records (``reference``, ``error``, ``gain``,
        ``memory_recalled``, ``memory_gain``, ...). The default — for
        controllers with nothing meaningful to expose — is empty.
        """
        return {}


@dataclass(frozen=True)
class ControlRecord:
    """One control-loop invocation, for post-hoc analysis."""

    time: int
    measurement: float
    capacity_before: float
    capacity_requested: float
    capacity_applied: float
    #: Whether the sensor held an old reading (a monitoring fault).
    stale: bool = False

    @property
    def acted(self) -> bool:
        return self.capacity_applied != self.capacity_before


@dataclass
class ControlLoop:
    """Sensor → controller → actuator at a fixed monitoring period.

    The loop tolerates missing sensor data (e.g. the first window of a
    run) by skipping the invocation — controllers never see synthetic
    zeros — and counts the skips in :attr:`skipped`. Its records and
    that count are everything the run's telemetry reads about it, after
    the run.

    **Integrator state.** Real actuators are quantized (you cannot run
    1.75 VMs), so integrating on the *applied* capacity would deadlock
    whenever ``gain * error`` rounds below one unit. The loop therefore
    integrates on a real-valued internal state and re-synchronizes it to
    the applied capacity whenever they drift more than one unit apart —
    which is exactly the anti-windup behaviour needed when an actuator
    clamps at a service limit or rejects a change mid-reshard.
    """

    name: str
    sensor: Sensor
    controller: Controller
    actuator: Actuator
    period: int = 60
    records: list[ControlRecord] = field(default_factory=list)
    #: Flight-recorder hooks (both optional and off by default): the
    #: decision audit log receives a full :class:`ControlDecision` per
    #: invocation; the event bus receives ``scale.up``/``scale.down``
    #: events whenever the applied capacity changes.
    decision_log: DecisionLog | None = None
    event_bus: EventBus | None = None
    #: Invocations skipped for want of sensor data.
    skipped: int = field(default=0, init=False)
    _integrator: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ControlError(f"loop {self.name!r}: period must be positive")

    def step(self, now: int) -> ControlRecord | None:
        """Run one control period; returns the record, or None if skipped.

        With an event bus attached, the whole invocation runs inside a
        causal trace context (``loop@time``): sensing anomalies,
        retries, clamps, scale events and any capacity transition the
        actuation starts all share the invocation's trace id — the
        MAPE-loop chain the flight recorder reconstructs.
        """
        bus = self.event_bus
        if bus is not None:
            bus.begin_trace(f"{self.name}@{now}")
        try:
            record = self._step(now)
        finally:
            if bus is not None:
                bus.end_trace()
        return record

    def _step(self, now: int) -> ControlRecord | None:
        measurement = self.sensor.measure(now)
        if measurement is None:
            self.skipped += 1
            return None
        current = self.actuator.get(now)
        if self._integrator is None or abs(self._integrator - current) > 1.0:
            self._integrator = current
        state_before = self._integrator
        requested = self.controller.compute(state_before, measurement, now)
        applied = self.actuator.apply(requested, now)
        self._integrator = requested
        record = ControlRecord(
            time=now,
            measurement=measurement,
            capacity_before=current,
            capacity_requested=requested,
            capacity_applied=applied,
            stale=getattr(self.sensor, "last_stale", False),
        )
        self.records.append(record)
        if self.decision_log is not None or self.event_bus is not None:
            self._record_decision(now, measurement, state_before, current, requested, applied)
        return record

    def _record_decision(
        self,
        now: int,
        measurement: float,
        state_before: float,
        current: float,
        requested: float,
        applied: float,
    ) -> None:
        """Flight-recorder capture: off the hot path, only runs when a
        decision log or event bus is attached."""
        info = self.controller.explain()
        if self.decision_log is not None:
            reference = info.get("reference")
            error = info.get("error")
            gain = info.get("gain")
            memory_gain = info.get("memory_gain")
            self.decision_log.record(
                ControlDecision(
                    time=now,
                    loop=self.name,
                    sensed=measurement,
                    state_before=state_before,
                    capacity_before=current,
                    raw_command=requested,
                    applied_command=applied,
                    reference=float(reference) if reference is not None else None,
                    error=float(error) if error is not None else None,
                    gain=float(gain) if gain is not None else None,
                    memory_recalled=bool(info.get("memory_recalled", False)),
                    memory_gain=float(memory_gain) if memory_gain is not None else None,
                    trace=self.event_bus.active_trace if self.event_bus else None,
                )
            )
        if self.event_bus is not None and applied != current:
            kind = "scale.up" if applied > current else "scale.down"
            self.event_bus.publish(
                now,
                self.name,
                kind,
                {"from": current, "to": applied, "requested": requested},
            )

    @property
    def actions_taken(self) -> int:
        """Number of invocations that changed capacity."""
        return sum(1 for record in self.records if record.acted)
