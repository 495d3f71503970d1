"""Simulated Amazon DynamoDB table (the storage layer).

Models the behaviours an elasticity controller has to cope with:
provisioned read/write capacity units, throttling above provision, a
burst-credit bucket (unused capacity from the trailing five minutes can
absorb short spikes, as in the real service), a delay before capacity
updates take effect, and an optional cooldown between capacity
*decreases* (the real service historically limited decreases per day).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import CapacityError, ConfigurationError, TransientAPIError
from repro.simulation.clock import SimClock

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: CloudWatch namespace used by the table's metrics.
NAMESPACE = "AWS/DynamoDB"

#: The table's metrics, in emission order: one frame in the store.
METRICS = (
    "ConsumedWriteCapacityUnits",
    "WriteThrottleEvents",
    "ProvisionedWriteCapacityUnits",
    "WriteUtilization",
    "BurstBalance",
    "ConsumedReadCapacityUnits",
    "ReadThrottleEvents",
    "ProvisionedReadCapacityUnits",
    "ReadUtilization",
)


@dataclass(frozen=True)
class DynamoDBConfig:
    """Table limits and capacity-update behaviour."""

    min_write_units: int = 1
    max_write_units: int = 40000
    min_read_units: int = 1
    max_read_units: int = 40000
    burst_seconds: int = 300
    update_delay_seconds: int = 30
    decrease_cooldown_seconds: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.min_write_units <= self.max_write_units:
            raise ConfigurationError("need 1 <= min_write_units <= max_write_units")
        if not 1 <= self.min_read_units <= self.max_read_units:
            raise ConfigurationError("need 1 <= min_read_units <= max_read_units")
        if self.burst_seconds < 0:
            raise ConfigurationError("burst_seconds must be non-negative")
        if self.update_delay_seconds < 0:
            raise ConfigurationError("update_delay_seconds must be non-negative")
        if self.decrease_cooldown_seconds < 0:
            raise ConfigurationError("decrease_cooldown_seconds must be non-negative")


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a batched write: accepted vs throttled units."""

    accepted_units: int
    throttled_units: int


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a batched read: accepted vs throttled units."""

    accepted_units: int
    throttled_units: int


class SimDynamoDBTable:
    """A provisioned-throughput table with burst credits."""

    def __init__(
        self,
        name: str = "page-aggregates",
        write_units: int = 10,
        read_units: int = 10,
        config: DynamoDBConfig | None = None,
    ) -> None:
        self.name = name
        # Metric dimensions are immutable for the table's lifetime;
        # built once instead of per emit call.
        self._dims = {"TableName": name}
        self._dims_key = (("TableName", name),)
        self.config = config or DynamoDBConfig()
        if not self.config.min_write_units <= write_units <= self.config.max_write_units:
            raise CapacityError(
                f"write_units={write_units} outside "
                f"[{self.config.min_write_units}, {self.config.max_write_units}]"
            )
        if not self.config.min_read_units <= read_units <= self.config.max_read_units:
            raise CapacityError(
                f"read_units={read_units} outside "
                f"[{self.config.min_read_units}, {self.config.max_read_units}]"
            )
        self._write_units = int(write_units)
        self._read_units = int(read_units)
        self._pending_write_target: int | None = None
        self._pending_ready_at = 0
        # Causal traces of the decisions that commanded the in-flight
        # updates; pinned onto the eventual capacity.applied events.
        self._pending_write_trace: str | None = None
        self._pending_read_trace: str | None = None
        self._last_decrease_at: int | None = None
        self._pending_read_target: int | None = None
        self._pending_read_ready_at = 0
        self._last_read_decrease_at: int | None = None
        # Burst buckets hold unused capacity-units (capped), one per
        # throughput dimension, as in the real service.
        self._burst_bucket = 0.0
        self._read_burst_bucket = 0.0
        # Per-tick counters.
        self._tick_consumed = 0
        self._tick_throttled = 0
        self._tick_read_consumed = 0
        self._tick_read_throttled = 0
        # Lifetime conservation counter (never reset; audited by the
        # invariant checker against the analytics layer's write stream).
        self.total_write_accepted = 0
        # Fault-injection state (chaos harness). A throttle storm scales
        # down the *usable* capacity while provision — and billing —
        # stay unchanged; an update-reject window makes capacity-update
        # API calls raise ``TransientAPIError``.
        self._degradation_factor = 1.0
        self._updates_failing = False
        # Flight-recorder hooks (off unless attach_bus() is called).
        self._bus = None
        self._bus_layer = "storage"
        self._throttle_since: dict[str, int | None] = {"write": None, "read": None}
        self._throttle_units: dict[str, int] = {"write": 0, "read": 0}
        # Region-level accounting (multi-flow runs; see cloud/region.py).
        self._region = None
        self._region_flow_id: str | None = None

    def attach_bus(self, bus, layer: str = "storage") -> None:
        """Publish capacity-update and throttle-episode events to a
        flight recorder; without a bus the table records nothing."""
        self._bus = bus
        self._bus_layer = layer

    def attach_region(self, region, flow_id: str) -> None:
        """Draw this table's provisioned throughput from a shared
        account limit.

        Capacity *increases* then require account headroom:
        :meth:`update_write_capacity` / :meth:`update_read_capacity`
        raise :class:`~repro.core.errors.RegionCapacityError` when the
        target would exceed the region's total for that dimension.
        Decreases are never gated.
        """
        region.register_table(flow_id, self)
        self._region = region
        self._region_flow_id = flow_id

    def committed_write_units(self) -> int:
        """Write units the account has committed to this table.

        The pending update target when one exists (a ripe-but-unapplied
        target becomes the provision on the next capacity query), else
        the current provision. Pure — never applies pending state or
        publishes events — so the region can sum it across tables from
        any flow's admission check.
        """
        if self._pending_write_target is not None:
            return self._pending_write_target
        return self._write_units

    def committed_read_units(self) -> int:
        """Read units the account has committed to this table (see
        :meth:`committed_write_units`)."""
        if self._pending_read_target is not None:
            return self._pending_read_target
        return self._read_units

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_throttle_storm(self, capacity_lost: float) -> None:
        """Degrade usable throughput by ``capacity_lost`` (in (0, 1)).

        Models a partition-level throttling storm: requests beyond the
        degraded rate are rejected even though the table's provisioned
        (and billed) capacity is unchanged.
        """
        if not 0.0 < capacity_lost < 1.0:
            raise ConfigurationError(
                f"throttle storm capacity_lost must be in (0, 1), got {capacity_lost}"
            )
        self._degradation_factor = 1.0 - capacity_lost

    def clear_throttle_storm(self) -> None:
        self._degradation_factor = 1.0

    def fail_updates(self) -> None:
        """Make capacity-update calls raise :class:`TransientAPIError`."""
        self._updates_failing = True

    def restore_updates(self) -> None:
        self._updates_failing = False

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def write_capacity(self, now: int) -> int:
        """Provisioned write units effective at ``now``."""
        if self._pending_write_target is not None and now >= self._pending_ready_at:
            self._write_units = self._pending_write_target
            self._pending_write_target = None
            if self._bus is not None:
                self._bus.publish(
                    now, self._bus_layer, "capacity.applied",
                    {"dimension": "write", "units": self._write_units},
                    trace=self._pending_write_trace,
                )
            self._pending_write_trace = None
        return self._write_units

    def read_capacity(self, now: int) -> int:
        """Provisioned read units effective at ``now``."""
        if self._pending_read_target is not None and now >= self._pending_read_ready_at:
            self._read_units = self._pending_read_target
            self._pending_read_target = None
            if self._bus is not None:
                self._bus.publish(
                    now, self._bus_layer, "capacity.applied",
                    {"dimension": "read", "units": self._read_units},
                    trace=self._pending_read_trace,
                )
            self._pending_read_trace = None
        return self._read_units

    def effective_write_capacity(self, now: int) -> int:
        """Usable write units/second at ``now``: provision scaled by any
        active throttling storm. Equals :meth:`write_capacity` outside
        fault windows."""
        capacity = self.write_capacity(now)
        if self._degradation_factor != 1.0:
            capacity = int(capacity * self._degradation_factor)
        return capacity

    def effective_read_capacity(self, now: int) -> int:
        """Usable read units/second at ``now`` (see
        :meth:`effective_write_capacity`)."""
        capacity = self.read_capacity(now)
        if self._degradation_factor != 1.0:
            capacity = int(capacity * self._degradation_factor)
        return capacity

    def next_capacity_event(self, now: int) -> int | None:
        """Earliest future time either throughput dimension changes.

        The span scheduler's horizon: the sooner of the pending write
        and read capacity updates completing after ``now``. ``None``
        when both dimensions are stable (updates already ripe at ``now``
        are applied by the next capacity call, i.e. at span start).
        """
        best: int | None = None
        if self._pending_write_target is not None and self._pending_ready_at > now:
            best = self._pending_ready_at
        if self._pending_read_target is not None and self._pending_read_ready_at > now:
            if best is None or self._pending_read_ready_at < best:
                best = self._pending_read_ready_at
        return best

    def read_updating(self, now: int) -> bool:
        return self._pending_read_target is not None and now < self._pending_read_ready_at

    def update_read_capacity(self, target: int, now: int) -> int:
        """Request a new provisioned read capacity.

        Same semantics as :meth:`update_write_capacity`: clamped to the
        table limits, rejected while an update is in flight, and
        decrease-rate-limited by the cooldown (the two throughput
        dimensions update independently, as in the real service).
        """
        if self._updates_failing:
            raise TransientAPIError(
                f"table {self.name!r}: UpdateTable(read) failed transiently (injected fault)"
            )
        current = self.read_capacity(now)
        target = max(self.config.min_read_units, min(self.config.max_read_units, int(target)))
        if self.read_updating(now):
            return self._pending_read_target  # type: ignore[return-value]
        if target == current:
            return current
        if target < current:
            cooldown = self.config.decrease_cooldown_seconds
            if (
                cooldown
                and self._last_read_decrease_at is not None
                and now - self._last_read_decrease_at < cooldown
            ):
                return current
            self._last_read_decrease_at = now
        elif self._region is not None:
            # All-or-nothing admission: raises RegionCapacityError (and
            # schedules nothing) without account headroom.
            self._region.admit_read_units(self._region_flow_id, self, target, now)
        self._pending_read_target = target
        self._pending_read_ready_at = now + self.config.update_delay_seconds
        if self._region is not None:
            self._region.note_capacity_change()
        if self._bus is not None:
            self._pending_read_trace = self._bus.active_trace
            self._bus.publish(
                now, self._bus_layer, "capacity.update",
                {"dimension": "read", "from": current, "to": target,
                 "ready_at": self._pending_read_ready_at},
            )
        return target

    def updating(self, now: int) -> bool:
        return self._pending_write_target is not None and now < self._pending_ready_at

    def update_write_capacity(self, target: int, now: int) -> int:
        """Request a new provisioned write capacity.

        Returns the clamped target actually scheduled. Requests while an
        update is in flight are ignored (the in-flight target is
        returned); decreases during the decrease cooldown are ignored
        (current capacity is returned).
        """
        if self._updates_failing:
            raise TransientAPIError(
                f"table {self.name!r}: UpdateTable(write) failed transiently (injected fault)"
            )
        current = self.write_capacity(now)
        target = max(self.config.min_write_units, min(self.config.max_write_units, int(target)))
        if self.updating(now):
            return self._pending_write_target  # type: ignore[return-value]
        if target == current:
            return current
        if target < current:
            cooldown = self.config.decrease_cooldown_seconds
            if (
                cooldown
                and self._last_decrease_at is not None
                and now - self._last_decrease_at < cooldown
            ):
                return current
            self._last_decrease_at = now
        elif self._region is not None:
            # All-or-nothing admission: raises RegionCapacityError (and
            # schedules nothing) without account headroom.
            self._region.admit_write_units(self._region_flow_id, self, target, now)
        self._pending_write_target = target
        self._pending_ready_at = now + self.config.update_delay_seconds
        if self._region is not None:
            self._region.note_capacity_change()
        if self._bus is not None:
            self._pending_write_trace = self._bus.active_trace
            self._bus.publish(
                now, self._bus_layer, "capacity.update",
                {"dimension": "write", "from": current, "to": target,
                 "ready_at": self._pending_ready_at},
            )
        return target

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write(self, units: int, clock: SimClock) -> WriteResult:
        """Consume ``units`` of write capacity this tick.

        Up to the provisioned rate is always accepted; excess draws from
        the burst bucket; anything beyond that is throttled. Unused
        provisioned capacity refills the bucket, capped at
        ``burst_seconds`` worth of the current provision.
        """
        if units < 0:
            raise ConfigurationError("units must be non-negative")
        now = clock.now
        # Acceptance and bucket refill run off the *effective* (fault-
        # degraded) rate; the bucket cap stays at provisioned level,
        # since banked credits are a property of what was paid for.
        provisioned = self.effective_write_capacity(now) * clock.tick_seconds
        accepted = min(units, provisioned)
        excess = units - accepted
        if excess > 0 and self._burst_bucket > 0:
            from_burst = int(min(excess, self._burst_bucket))
            accepted += from_burst
            excess -= from_burst
            self._burst_bucket -= from_burst
        unused = max(0, provisioned - units)
        bucket_cap = self.config.burst_seconds * self.write_capacity(now)
        self._burst_bucket = min(bucket_cap, self._burst_bucket + unused)
        self._tick_consumed += accepted
        self.total_write_accepted += accepted
        self._tick_throttled += excess
        return WriteResult(accepted_units=accepted, throttled_units=excess)

    def read(self, units: int, clock: SimClock) -> ReadResult:
        """Consume ``units`` of read capacity this tick.

        Mirrors :meth:`write`: up to the provisioned read rate is always
        accepted, excess draws from the read burst bucket, the remainder
        throttles, and unused provision refills the bucket.
        """
        if units < 0:
            raise ConfigurationError("units must be non-negative")
        now = clock.now
        provisioned = self.effective_read_capacity(now) * clock.tick_seconds
        accepted = min(units, provisioned)
        excess = units - accepted
        if excess > 0 and self._read_burst_bucket > 0:
            from_burst = int(min(excess, self._read_burst_bucket))
            accepted += from_burst
            excess -= from_burst
            self._read_burst_bucket -= from_burst
        unused = max(0, provisioned - units)
        bucket_cap = self.config.burst_seconds * self.read_capacity(now)
        self._read_burst_bucket = min(bucket_cap, self._read_burst_bucket + unused)
        self._tick_read_consumed += accepted
        self._tick_read_throttled += excess
        return ReadResult(accepted_units=accepted, throttled_units=excess)

    @property
    def burst_balance(self) -> float:
        """Write capacity-units currently banked in the burst bucket."""
        return self._burst_bucket

    @property
    def read_burst_balance(self) -> float:
        """Read capacity-units currently banked in the read burst bucket."""
        return self._read_burst_bucket

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def emit_metrics(self, cloudwatch, clock: SimClock) -> None:
        now = clock.now
        # Utilization runs off the effective rate so the sensed signal
        # saturates when a throttling storm shrinks usable capacity —
        # exactly what pushes an adaptive controller to scale up.
        provisioned = self.effective_write_capacity(now) * clock.tick_seconds
        utilization = 100.0 * self._tick_consumed / provisioned if provisioned else 0.0
        write_capacity = self.write_capacity(now)
        read_provisioned = self.effective_read_capacity(now) * clock.tick_seconds
        read_utilization = (
            100.0 * self._tick_read_consumed / read_provisioned if read_provisioned else 0.0
        )
        cloudwatch.put_metric_frame(NAMESPACE, METRICS, now, (
            self._tick_consumed, self._tick_throttled, write_capacity, utilization,
            self._burst_bucket, self._tick_read_consumed, self._tick_read_throttled,
            self.read_capacity(now), read_utilization,
        ), self._dims_key)
        if self._bus is not None:
            self._track_throttle_episode(now, "write", self._tick_throttled)
            self._track_throttle_episode(now, "read", self._tick_read_throttled)
        self._tick_consumed = 0
        self._tick_throttled = 0
        self._tick_read_consumed = 0
        self._tick_read_throttled = 0

    def emit_metrics_span(
        self,
        cloudwatch,
        times: ArrayLike,
        consumed: ArrayLike,
        throttled: ArrayLike,
        utilization: ArrayLike,
        burst: ArrayLike,
        read_consumed: ArrayLike,
        read_throttled: ArrayLike,
        read_utilization: ArrayLike,
        write_capacity: int,
        read_capacity: int,
    ) -> None:
        """Columnar :meth:`emit_metrics` for a whole span of ticks: one
        frame append (lists from the scalar recurrence, arrays from the
        vector stretch).

        Provisioned capacities are constant inside a span (a pending
        update completing is a span boundary), so they arrive as scalars
        and broadcast per tick. Throttle-episode tracking replays tick
        by tick — write then read per tick, matching the per-tick loop —
        when a bus is attached.
        """
        cloudwatch.put_metric_frame_batch(NAMESPACE, METRICS, times, (
            consumed, throttled, write_capacity, utilization, burst, read_consumed,
            read_throttled, read_capacity, read_utilization,
        ), self._dims_key)
        if self._bus is not None:
            # A fully quiet span with no episode open in either
            # dimension replays to nothing — skip the per-tick loop.
            if (
                self._throttle_since["write"] is None
                and self._throttle_since["read"] is None
                and not any(throttled)
                and not any(read_throttled)
            ):
                return
            track = self._track_throttle_episode
            for t, tick_throttled, tick_read_throttled in zip(times, throttled, read_throttled):
                track(int(t), "write", int(tick_throttled))
                track(int(t), "read", int(tick_read_throttled))

    def _track_throttle_episode(self, now: int, dimension: str, throttled: int) -> None:
        """Coalesce per-tick throttling into start/end events per
        throughput dimension (same pattern as the Kinesis stream)."""
        since = self._throttle_since[dimension]
        if throttled:
            if since is None:
                self._throttle_since[dimension] = now
                self._throttle_units[dimension] = 0
                self._bus.publish(
                    now, self._bus_layer, "throttle",
                    {"dimension": dimension, "units": throttled},
                )
            self._throttle_units[dimension] += throttled
        elif since is not None:
            self._bus.publish(
                now, self._bus_layer, "throttle.end",
                {"dimension": dimension, "units": self._throttle_units[dimension],
                 "since": since},
            )
            self._throttle_since[dimension] = None
            self._throttle_units[dimension] = 0
