"""Actuators: applying controller commands to simulated services.

Each actuator wraps one service's capacity API — "adding or removing
VMs and increasing or decreasing number of Shards" (Sec. 2) — and
enforces the realities the controller must live with: integer
capacities, service minima/maxima, and updates that are rejected while
a previous change is still in flight.
"""

from __future__ import annotations

from typing import Callable

from repro.cloud.dynamodb import ThroughputDimension
from repro.cloud.ec2 import SimEC2Fleet
from repro.cloud.kinesis import SimKinesisStream
from repro.control.base import Actuator
from repro.core.errors import ControlError, TransientAPIError
from repro.observability.events import EventBus


class CallbackActuator(Actuator):
    """Generic actuator over getter/setter callables.

    Useful in tests and for plant models that are not one of the three
    built-in services. Clamps to ``[minimum, maximum]`` and rounds to
    integers when ``integer`` is set.
    """

    def __init__(
        self,
        getter: Callable[[int], float],
        setter: Callable[[float, int], None],
        minimum: float = 1.0,
        maximum: float = float("inf"),
        integer: bool = True,
    ) -> None:
        if minimum > maximum:
            raise ControlError(f"minimum {minimum} exceeds maximum {maximum}")
        self._getter = getter
        self._setter = setter
        self.minimum = minimum
        self.maximum = maximum
        self.integer = integer

    def get(self, now: int) -> float:
        return self._getter(now)

    def apply(self, target: float, now: int) -> float:
        clamped = max(self.minimum, min(self.maximum, target))
        if self.integer:
            clamped = float(round(clamped))
        if self._bus is not None and target != clamped and clamped in (self.minimum, self.maximum):
            self._publish_adjusted(now, target, clamped)
        self._setter(clamped, now)
        return clamped


class RetryingActuator(Actuator):
    """Bounded retry + circuit breaker around another actuator.

    Simulated control-plane APIs can fail transiently (the chaos
    harness's update-reject storms raise
    :class:`~repro.core.errors.TransientAPIError`). This wrapper makes
    a control loop survive them the way a production autoscaler would:

    * each :meth:`apply` retries the inner call up to ``max_attempts``
      times (SDK-style immediate retries within one control period),
      publishing ``actuation.retry`` per failed attempt;
    * after ``breaker_threshold`` consecutive exhausted calls the
      circuit *opens*: applies are shed (the current capacity is
      returned untouched) until a cooldown passes, and each reopening
      doubles the cooldown up to ``max_cooldown_seconds`` — exponential
      backoff in simulated time, surfaced as ``circuit.open`` /
      ``circuit.close`` events;
    * once open, the first call after the cooldown is a half-open
      probe: success closes the circuit and resets the backoff, another
      exhausted call reopens it immediately at the doubled cooldown.

    Reads (:meth:`get`) always pass through. On the healthy path the
    wrapper is a single extra frame — no state changes, no events — so
    wrapping every actuator by default costs nothing.
    """

    def __init__(
        self,
        inner: Actuator,
        *,
        max_attempts: int = 3,
        breaker_threshold: int = 2,
        cooldown_seconds: int = 60,
        max_cooldown_seconds: int = 960,
    ) -> None:
        if max_attempts < 1:
            raise ControlError(f"max_attempts must be >= 1, got {max_attempts}")
        if breaker_threshold < 1:
            raise ControlError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        if cooldown_seconds <= 0:
            raise ControlError(f"cooldown_seconds must be positive, got {cooldown_seconds}")
        if max_cooldown_seconds < cooldown_seconds:
            raise ControlError("max_cooldown_seconds must be >= cooldown_seconds")
        self.inner = inner
        self.max_attempts = max_attempts
        self.breaker_threshold = breaker_threshold
        self.cooldown_seconds = cooldown_seconds
        self.max_cooldown_seconds = max_cooldown_seconds
        #: Failed attempts observed, across all apply calls (diagnostics).
        self.failed_attempts = 0
        #: Lifetime count of circuit openings (``_openings`` resets to 0
        #: whenever the circuit closes; scorecards need the cumulative).
        self.total_openings = 0
        self._consecutive_failures = 0
        self._openings = 0
        self._open_until = 0
        self._half_open = False

    @property
    def circuit_open_until(self) -> int:
        """Time the circuit stays open to; 0 when it never opened."""
        return self._open_until

    def instrument(self, bus: EventBus, layer: str) -> None:
        super().instrument(bus, layer)
        self.inner.instrument(bus, layer)

    def get(self, now: int) -> float:
        return self.inner.get(now)

    def apply(self, target: float, now: int) -> float:
        if now < self._open_until:
            # Circuit open: shed the command, leave capacity untouched.
            return self.inner.get(now)
        for attempt in range(1, self.max_attempts + 1):
            try:
                applied = self.inner.apply(target, now)
            except TransientAPIError as exc:
                self.failed_attempts += 1
                if self._bus is not None:
                    self._bus.publish(
                        now, self._bus_layer, "actuation.retry",
                        {"attempt": attempt, "target": target, "error": str(exc)},
                    )
            else:
                if self._half_open and self._bus is not None:
                    self._bus.publish(
                        now, self._bus_layer, "circuit.close",
                        {"after_openings": self._openings},
                    )
                self._half_open = False
                self._openings = 0
                self._consecutive_failures = 0
                return applied
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.breaker_threshold or self._half_open:
            self._openings += 1
            self.total_openings += 1
            cooldown = min(
                self.max_cooldown_seconds,
                self.cooldown_seconds * 2 ** (self._openings - 1),
            )
            self._open_until = now + cooldown
            self._half_open = True
            self._consecutive_failures = 0
            if self._bus is not None:
                self._bus.publish(
                    now, self._bus_layer, "circuit.open",
                    {"until": self._open_until, "cooldown": cooldown,
                     "openings": self._openings},
                )
        return self.inner.get(now)


class KinesisShardActuator(Actuator):
    """Resizes a Kinesis stream's shard count."""

    def __init__(self, stream: SimKinesisStream) -> None:
        self._stream = stream

    def get(self, now: int) -> float:
        # While resharding, report the in-flight target so the control
        # error integrates against the commanded state, not the stale one.
        if self._stream.resharding(now):
            return float(self._stream._reshard_target)  # noqa: SLF001 - same package family
        return float(self._stream.shard_count(now))

    def apply(self, target: float, now: int) -> float:
        want = int(round(target))
        got = self._stream.update_shard_count(want, now)
        if got != want:
            self._publish_adjusted(now, want, got)
        return float(got)


class StormVMActuator(Actuator):
    """Resizes the analytics layer's EC2 fleet."""

    def __init__(self, fleet: SimEC2Fleet) -> None:
        self._fleet = fleet

    def get(self, now: int) -> float:
        return float(self._fleet.provisioned_count(now))

    def apply(self, target: float, now: int) -> float:
        want = int(round(target))
        before = self._fleet.provisioned_count(now)
        got = self._fleet.set_desired(want, now)
        if got != before and self._bus is not None:
            # Launches surface as a running-VM change (and a rebalance)
            # only after boot latency; leave this decision's trace on
            # the fleet so the eventual rebalance event joins its chain.
            self._fleet.last_change_trace = self._bus.active_trace
        if got != want:
            self._publish_adjusted(now, want, got)
        return float(got)


class DynamoDBActuator(Actuator):
    """Resizes one of a DynamoDB table's provisioned throughput
    dimensions, ``table.writes`` or ``table.reads``.

    The two dimensions scale independently; Flower lists "DynamoDB
    read/write units" among the resources it manages (Sec. 2), so each
    gets its own actuator and control loop.
    """

    def __init__(self, dimension: ThroughputDimension) -> None:
        self._dimension = dimension

    def get(self, now: int) -> float:
        # While updating, report the in-flight target (see the shard actuator).
        dimension = self._dimension
        if dimension.updating(now):
            return float(dimension.target)
        return float(dimension.capacity(now))

    def apply(self, target: float, now: int) -> float:
        want = int(round(target))
        got = self._dimension.update(want, now)
        if got != want:
            self._publish_adjusted(now, want, got)
        return float(got)
