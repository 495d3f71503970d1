"""Simulated Amazon DynamoDB table (the storage layer).

Models the behaviours an elasticity controller has to cope with:
provisioned read/write capacity units, throttling above provision, a
burst-credit bucket (unused capacity from the trailing five minutes can
absorb short spikes, as in the real service), a delay before capacity
updates take effect, and an optional cooldown between capacity
*decreases* (the real service historically limited decreases per day).
The two throughput dimensions behave alike and scale independently,
as in the real service: each is one :class:`ThroughputDimension`,
``table.writes`` and ``table.reads``.
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
class ThroughputResult:
    """Outcome of a batched write or read: accepted vs throttled units."""

    accepted_units: int
    throttled_units: int


class ThroughputDimension:
    """One provisioned-throughput dimension of a table: writes or reads.

    Holds the provisioned units, the in-flight update (its target, ready
    time and causal trace), the last decrease, the burst bucket and the
    per-tick counters. The table-wide state it reads — the config, the
    throttle-storm and update-reject faults, the bus and the region —
    stays on the table.
    """

    def __init__(self, table: SimDynamoDBTable, name: str, units: int, low: int, high: int) -> None:
        if not low <= units <= high:
            raise CapacityError(f"{name}_units={units} outside [{low}, {high}]")
        self._table = table
        #: ``"write"`` or ``"read"``: the dimension in events and errors.
        self.name = name
        #: The region resource this dimension's units draw on.
        self.resource = f"{name}_units"
        #: The config's bounds for this dimension; targets clamp to them.
        self.low = low
        self.high = high
        self.units = int(units)
        self.target: int | None = None
        self.ready_at = 0
        # Causal trace of the decision that commanded the in-flight
        # update; pinned onto the eventual capacity.applied event.
        self.trace: str | None = None
        self.last_decrease_at: int | None = None
        #: Unused capacity-units banked for bursts (capped).
        self.bucket = 0.0
        # Per-tick counters, reset by the table's metric emission.
        self.tick_consumed = 0
        self.tick_throttled = 0
        #: Lifetime accepted units (never reset; the invariant checker
        #: audits the writes' against the analytics layer's write stream).
        self.total_accepted = 0

    def capacity(self, now: int) -> int:
        """Provisioned units effective at ``now``."""
        if self.target is not None and now >= self.ready_at:
            self.units = self.target
            self.target = None
            bus = self._table._bus
            if bus is not None:
                bus.publish(
                    now, self._table._bus_layer, "capacity.applied",
                    {"dimension": self.name, "units": self.units}, trace=self.trace,
                )
            self.trace = None
        return self.units

    def effective(self, now: int) -> int:
        """Usable units/second at ``now``: provision scaled by any active
        throttling storm. Equals :meth:`capacity` outside fault windows."""
        capacity = self.capacity(now)
        factor = self._table._degradation_factor
        if factor != 1.0:
            capacity = int(capacity * factor)
        return capacity

    def committed(self) -> int:
        """Units the account has committed to this dimension.

        The pending update target when one exists (a ripe-but-unapplied
        target becomes the provision on the next capacity query), else
        the current provision. Pure — never applies pending state or
        publishes events — so the region can sum it across tables from
        any flow's admission check.
        """
        return self.units if self.target is None else self.target

    def updating(self, now: int) -> bool:
        return self.target is not None and now < self.ready_at

    def update(self, target: int, now: int) -> int:
        """Request a new provisioned capacity.

        Returns the target clamped to this dimension's bounds and
        actually scheduled. Requests while an update is in flight are
        ignored (the in-flight target is returned); decreases during the
        decrease cooldown are ignored (current capacity is returned).
        With a region attached, an increase needs account headroom: it
        raises :class:`~repro.core.errors.RegionCapacityError` and
        schedules nothing without it.
        """
        table = self._table
        if table._updates_failing:
            raise TransientAPIError(
                f"table {table.name!r}: UpdateTable({self.name}) failed transiently "
                "(injected fault)"
            )
        current = self.capacity(now)
        target = max(self.low, min(self.high, int(target)))
        if self.updating(now):
            return self.target  # type: ignore[return-value]
        if target == current:
            return current
        region = table._region
        if target < current:
            cooldown = table.config.decrease_cooldown_seconds
            if (
                cooldown
                and self.last_decrease_at is not None
                and now - self.last_decrease_at < cooldown
            ):
                return current
            self.last_decrease_at = now
        elif region is not None:
            region.admit(self.resource, table._region_flow_id, target, now)
        self.target = target
        self.ready_at = now + table.config.update_delay_seconds
        if region is not None:
            region.note_capacity_change()
        bus = table._bus
        if bus is not None:
            self.trace = bus.active_trace
            bus.publish(
                now, table._bus_layer, "capacity.update",
                {"dimension": self.name, "from": current, "to": target,
                 "ready_at": self.ready_at},
            )
        return target

    def consume(self, units: int, clock: SimClock) -> ThroughputResult:
        """Consume ``units`` of this dimension's capacity this tick.

        Up to the effective rate is always accepted; excess draws from
        the burst bucket; anything beyond that is throttled. Unused
        effective capacity refills the bucket, capped at
        ``burst_seconds`` worth of the current provision: banked
        credits are a property of what was paid for.
        """
        if units < 0:
            raise ConfigurationError("units must be non-negative")
        now = clock.now
        provisioned = self.effective(now) * clock.tick_seconds
        accepted = min(units, provisioned)
        excess = units - accepted
        if excess > 0 and self.bucket > 0:
            from_burst = int(min(excess, self.bucket))
            accepted += from_burst
            excess -= from_burst
            self.bucket -= from_burst
        unused = max(0, provisioned - units)
        bucket_cap = self._table.config.burst_seconds * self.capacity(now)
        self.bucket = min(bucket_cap, self.bucket + unused)
        self.tick_consumed += accepted
        self.tick_throttled += excess
        self.total_accepted += accepted
        return ThroughputResult(accepted_units=accepted, throttled_units=excess)


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
        self._dims_key = (("TableName", name),)
        self.config = config = config or DynamoDBConfig()
        self.writes = ThroughputDimension(
            self, "write", write_units, config.min_write_units, config.max_write_units
        )
        self.reads = ThroughputDimension(
            self, "read", read_units, config.min_read_units, config.max_read_units
        )
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
        account limit, one region resource per dimension.

        Capacity *increases* then require account headroom (see
        :meth:`ThroughputDimension.update`). Decreases are never gated.
        """
        for dimension in (self.writes, self.reads):
            region.register(dimension.resource, flow_id, lambda _now, d=dimension: d.committed())
        self._region = region
        self._region_flow_id = flow_id

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

    def next_capacity_event(self, now: int) -> int | None:
        """Earliest future time either throughput dimension changes.

        The span scheduler's horizon: the sooner of the pending write
        and read capacity updates completing after ``now``. ``None``
        when both dimensions are stable (updates already ripe at ``now``
        are applied by the next capacity call, i.e. at span start).
        """
        pending = [d.ready_at for d in (self.writes, self.reads) if d.updating(now)]
        return min(pending) if pending else None

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def emit_metrics(self, cloudwatch, clock: SimClock) -> None:
        now = clock.now
        writes, reads = self.writes, self.reads
        # Utilization runs off the effective rate so the sensed signal
        # saturates when a throttling storm shrinks usable capacity —
        # exactly what pushes an adaptive controller to scale up.
        provisioned = writes.effective(now) * clock.tick_seconds
        utilization = 100.0 * writes.tick_consumed / provisioned if provisioned else 0.0
        write_capacity = writes.capacity(now)
        read_provisioned = reads.effective(now) * clock.tick_seconds
        read_utilization = (
            100.0 * reads.tick_consumed / read_provisioned if read_provisioned else 0.0
        )
        cloudwatch.put_metric_frame(NAMESPACE, METRICS, now, (
            writes.tick_consumed, writes.tick_throttled, write_capacity, utilization,
            writes.bucket, reads.tick_consumed, reads.tick_throttled,
            reads.capacity(now), read_utilization,
        ), self._dims_key)
        for dimension in (writes, reads):
            if self._bus is not None:
                self._track_throttle_episode(now, dimension.name, dimension.tick_throttled)
            dimension.tick_consumed = 0
            dimension.tick_throttled = 0

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
        update completing is a span boundary), so they arrive as
        scalars, which the store keeps as steps. Throttle-episode
        tracking replays tick by tick — write then read per tick,
        matching the per-tick loop — when a bus is attached.
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
