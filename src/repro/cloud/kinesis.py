"""Simulated Amazon Kinesis stream (the ingestion layer).

The capacity model is the one the paper itself leans on: "each Shard
supports up to 1,000 records/second for writes" (Sec. 3.1), plus the
1 MB/s per-shard payload limit. Writes beyond provisioned throughput
are throttled back to the producer (``ProvisionedThroughputExceeded``),
and resharding (split/merge) takes time proportional to the number of
shards touched — the actuation latency a controller must ride out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import CapacityError, ConfigurationError
from repro.simulation.clock import SimClock

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: CloudWatch namespace used by the stream's metrics.
NAMESPACE = "AWS/Kinesis"

#: The stream's metrics, in emission order: one frame in the store.
METRICS = (
    "IncomingRecords",
    "IncomingBytes",
    "WriteProvisionedThroughputExceeded",
    "GetRecords.Records",
    "ShardCount",
    "WriteUtilization",
    "BacklogRecords",
    "MillisBehindLatest",
)


@dataclass(frozen=True)
class KinesisConfig:
    """Stream limits and resharding behaviour.

    Attributes
    ----------
    records_per_shard_per_second / bytes_per_shard_per_second:
        Per-shard write limits (AWS: 1,000 records/s and 1 MiB/s).
    read_records_per_shard_per_second:
        Per-shard read limit (AWS allows 2 MB/s ~ 2x write rate).
    reshard_seconds_per_shard:
        Time to split or merge one shard; a change of N shards takes
        ``base_reshard_seconds + N * reshard_seconds_per_shard``.
    """

    records_per_shard_per_second: int = 1000
    bytes_per_shard_per_second: int = 1024 * 1024
    read_records_per_shard_per_second: int = 2000
    min_shards: int = 1
    max_shards: int = 512
    base_reshard_seconds: int = 30
    reshard_seconds_per_shard: int = 15
    #: Partition-key skew in [0, 1). Kinesis throttles per shard, not on
    #: the stream aggregate: with skewed keys the hottest shard receives
    #: ``skew + (1 - skew)/n`` of the traffic and becomes the throughput
    #: bottleneck, so adding shards helps sublinearly. 0 = perfectly
    #: distributed keys (aggregate behaviour).
    hash_key_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.records_per_shard_per_second <= 0 or self.bytes_per_shard_per_second <= 0:
            raise ConfigurationError("per-shard write limits must be positive")
        if self.read_records_per_shard_per_second <= 0:
            raise ConfigurationError("per-shard read limit must be positive")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ConfigurationError(
                f"need 1 <= min_shards <= max_shards, got {self.min_shards}..{self.max_shards}"
            )
        if self.base_reshard_seconds < 0 or self.reshard_seconds_per_shard < 0:
            raise ConfigurationError("reshard latencies must be non-negative")
        if not 0.0 <= self.hash_key_skew < 1.0:
            raise ConfigurationError(
                f"hash_key_skew must be in [0, 1), got {self.hash_key_skew}"
            )

    def hot_shard_share(self, shards: int) -> float:
        """Traffic fraction landing on the hottest of ``shards`` shards."""
        return self.hash_key_skew + (1.0 - self.hash_key_skew) / shards


@dataclass(frozen=True)
class PutResult:
    """Outcome of a batched put: how much was accepted vs throttled."""

    accepted_records: int
    accepted_bytes: int
    throttled_records: int
    throttled_bytes: int


class SimKinesisStream:
    """A stream with shard-based write capacity and a consumer buffer.

    Records accepted by :meth:`put_records` enter an internal buffer;
    the analytics layer drains it through :meth:`get_records`. The
    buffer size is the stream backlog ("iterator age" in AWS terms) —
    it grows when the analytics layer is under-provisioned, which is
    how under-provisioning one layer becomes visible upstream.
    """

    def __init__(
        self,
        name: str = "clickstream",
        shards: int = 1,
        config: KinesisConfig | None = None,
    ) -> None:
        self.name = name
        # Metric dimensions are immutable for the stream's lifetime;
        # built once instead of per emit call.
        self._dims = {"StreamName": name}
        self._dims_key = (("StreamName", name),)
        self.config = config or KinesisConfig()
        if not self.config.min_shards <= shards <= self.config.max_shards:
            raise CapacityError(
                f"shards={shards} outside [{self.config.min_shards}, {self.config.max_shards}]"
            )
        self._shards = int(shards)
        self._reshard_target: int | None = None
        self._reshard_ready_at: int = 0
        # Causal trace of the decision that commanded the in-flight
        # reshard; pinned onto the eventual reshard.complete event.
        self._reshard_trace: str | None = None
        # Consumer-facing buffer of accepted-but-unread records.
        self._buffer_records = 0
        # Per-tick counters, flushed to metrics by emit_metrics().
        self._tick_accepted = 0
        self._tick_accepted_bytes = 0
        self._tick_throttled = 0
        self._tick_read = 0
        # Smoothed incoming rate (records/s), for the iterator-age
        # estimate: lag seconds ~= backlog / recent arrival rate.
        self._smoothed_rate = 0.0
        # Lifetime conservation counters (never reset; the invariant
        # checker audits them against the downstream layers).
        self.total_accepted_records = 0
        self.total_accepted_bytes = 0
        self.total_read_records = 0
        # Fault-injection state (chaos harness). A brownout removes a
        # fraction of write capacity; a reshard stall multiplies the
        # latency of reshard operations started while it is active.
        self._brownout_factor = 1.0
        self._reshard_stall_factor = 1.0
        # Flight-recorder hooks (off unless attach_bus() is called).
        self._bus = None
        self._bus_layer = "ingestion"
        self._throttle_since: int | None = None
        self._throttle_records = 0
        # Region-level accounting (multi-flow runs; see cloud/region.py).
        self._region = None
        self._region_flow_id: str | None = None

    def attach_region(self, region, flow_id: str) -> None:
        """Draw this stream's shards from a shared account limit.

        Upward reshards then require account headroom:
        :meth:`update_shard_count` raises
        :class:`~repro.core.errors.RegionCapacityError` when the target
        would exceed the region's total shard limit. Merges (downward
        reshards) are never gated.
        """
        region.register("shards", flow_id, lambda _now: self.committed_shards())
        self._region = region
        self._region_flow_id = flow_id

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_bus(self, bus, layer: str = "ingestion") -> None:
        """Publish reshard and throttle-episode events to a flight
        recorder; without a bus the stream records nothing."""
        self._bus = bus
        self._bus_layer = layer

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_brownout(self, capacity_lost: float) -> None:
        """Remove ``capacity_lost`` (a fraction in (0, 1)) of write capacity.

        Models a subset of shards browning out: provisioned shard count
        is unchanged (and still billed), but the usable write throughput
        drops until :meth:`clear_brownout`.
        """
        if not 0.0 < capacity_lost < 1.0:
            raise ConfigurationError(
                f"brownout capacity_lost must be in (0, 1), got {capacity_lost}"
            )
        self._brownout_factor = 1.0 - capacity_lost

    def clear_brownout(self) -> None:
        self._brownout_factor = 1.0

    def set_reshard_stall(self, factor: float) -> None:
        """Multiply the duration of reshards started while active."""
        if factor < 1.0:
            raise ConfigurationError(f"reshard stall factor must be >= 1, got {factor}")
        self._reshard_stall_factor = factor

    def clear_reshard_stall(self) -> None:
        self._reshard_stall_factor = 1.0

    def stall_inflight_reshard(self, now: int) -> int | None:
        """Extend an in-flight reshard by the current stall factor.

        Returns the new ready time, or ``None`` if no reshard was in
        flight. The remaining duration (not the elapsed part) is
        stretched, so a stall landing mid-reshard only delays what is
        left.
        """
        if self._reshard_target is None or self._reshard_ready_at <= now:
            return None
        remaining = self._reshard_ready_at - now
        self._reshard_ready_at = now + int(remaining * self._reshard_stall_factor)
        return self._reshard_ready_at

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def shard_count(self, now: int) -> int:
        """Effective shard count at ``now`` (resharding applies late)."""
        if self._reshard_target is not None and now >= self._reshard_ready_at:
            self._shards = self._reshard_target
            self._reshard_target = None
            if self._bus is not None:
                self._bus.publish(
                    now, self._bus_layer, "reshard.complete",
                    {"shards": self._shards}, trace=self._reshard_trace,
                )
            self._reshard_trace = None
        return self._shards

    def resharding(self, now: int) -> bool:
        """Whether a reshard operation is still in flight at ``now``."""
        return self._reshard_target is not None and now < self._reshard_ready_at

    def committed_shards(self) -> int:
        """Shards the account has committed to this stream.

        The in-flight reshard target when one exists (a ripe-but-
        unapplied target becomes the shard count on the next capacity
        query, so it counts too), else the current count. Pure — never
        applies pending state or publishes events — so the region can
        sum it across streams from any flow's admission check.
        """
        return self._shards if self._reshard_target is None else self._reshard_target

    def update_shard_count(self, target: int, now: int) -> int:
        """Start resharding toward ``target`` shards.

        Returns the clamped target. If a reshard is already in flight
        the request is ignored (AWS returns ``ResourceInUseException``)
        and the in-flight target is returned — controllers poll again
        on their next period.
        """
        current = self.shard_count(now)
        target = max(self.config.min_shards, min(self.config.max_shards, int(target)))
        if self.resharding(now):
            return self._reshard_target  # type: ignore[return-value]
        if target == current:
            return current
        if target > current and self._region is not None:
            # All-or-nothing admission: raises RegionCapacityError (and
            # schedules nothing) without account headroom.
            self._region.admit("shards", self._region_flow_id, target, now)
        delta = abs(target - current)
        duration = self.config.base_reshard_seconds + delta * self.config.reshard_seconds_per_shard
        if self._reshard_stall_factor != 1.0:
            duration = int(duration * self._reshard_stall_factor)
        self._reshard_target = target
        self._reshard_ready_at = now + duration
        if self._region is not None:
            self._region.note_capacity_change()
        if self._bus is not None:
            # The decision's trace context is active right now (the
            # actuator applied inside the control loop's step); capture
            # it so the completion event, published ticks later from
            # the data path, still joins the commanding chain.
            self._reshard_trace = self._bus.active_trace
            self._bus.publish(
                now,
                self._bus_layer,
                "reshard",
                {"from": current, "to": target, "ready_at": self._reshard_ready_at},
            )
        return target

    def next_capacity_event(self, now: int) -> int | None:
        """Earliest future time the stream's capacity will change.

        The span scheduler's horizon: a pending reshard completing after
        ``now``. ``None`` when capacity is stable (including a reshard
        already ripe at ``now`` — that one is applied by the very next
        capacity call, i.e. at the start of the next span).
        """
        if self._reshard_target is not None and self._reshard_ready_at > now:
            return self._reshard_ready_at
        return None

    def write_capacity_records(self, now: int) -> int:
        """Records/second the stream can currently absorb.

        With skewed partition keys the hottest shard saturates first, so
        the usable aggregate is the per-shard limit divided by the hot
        shard's traffic share — less than ``shards * limit`` unless keys
        are perfectly distributed.
        """
        shards = self.shard_count(now)
        limit = shards * self.config.records_per_shard_per_second
        if self.config.hash_key_skew:
            bottleneck = self.config.records_per_shard_per_second / self.config.hot_shard_share(shards)
            limit = min(limit, int(bottleneck))
        if self._brownout_factor != 1.0:
            limit = int(limit * self._brownout_factor)
        return limit

    def write_capacity_bytes(self, now: int) -> int:
        shards = self.shard_count(now)
        limit = shards * self.config.bytes_per_shard_per_second
        if self.config.hash_key_skew:
            bottleneck = self.config.bytes_per_shard_per_second / self.config.hot_shard_share(shards)
            limit = min(limit, int(bottleneck))
        if self._brownout_factor != 1.0:
            limit = int(limit * self._brownout_factor)
        return limit

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def put_records(self, records: int, payload_bytes: int, clock: SimClock) -> PutResult:
        """Offer a batch of records for this tick.

        Acceptance is limited by both the record-rate and byte-rate
        shard limits over the tick; the binding limit wins. Throttled
        records are returned to the caller (producers retry, as the
        Kinesis Producer Library does).
        """
        if records < 0 or payload_bytes < 0:
            raise ConfigurationError("records and payload_bytes must be non-negative")
        if records == 0:
            return PutResult(0, 0, 0, 0)
        now = clock.now
        record_cap = self.write_capacity_records(now) * clock.tick_seconds
        byte_cap = self.write_capacity_bytes(now) * clock.tick_seconds
        record_fraction = min(1.0, record_cap / records)
        byte_fraction = min(1.0, byte_cap / payload_bytes) if payload_bytes else 1.0
        fraction = min(record_fraction, byte_fraction)
        accepted = int(records * fraction)
        accepted_bytes = int(payload_bytes * fraction)
        self._buffer_records += accepted
        self.total_accepted_records += accepted
        self.total_accepted_bytes += accepted_bytes
        self._tick_accepted += accepted
        self._tick_accepted_bytes += accepted_bytes
        self._tick_throttled += records - accepted
        return PutResult(accepted, accepted_bytes, records - accepted, payload_bytes - accepted_bytes)

    def get_records(self, max_records: int, clock: SimClock) -> int:
        """Drain up to ``max_records`` from the buffer (consumer read).

        Also limited by the per-shard read throughput over the tick.
        Returns the number of records handed to the consumer.
        """
        if max_records < 0:
            raise ConfigurationError("max_records must be non-negative")
        now = clock.now
        read_cap = (
            self.shard_count(now)
            * self.config.read_records_per_shard_per_second
            * clock.tick_seconds
        )
        handed = min(max_records, self._buffer_records, read_cap)
        self._buffer_records -= handed
        self.total_read_records += handed
        self._tick_read += handed
        return handed

    @property
    def backlog_records(self) -> int:
        """Records accepted but not yet read by the consumer."""
        return self._buffer_records

    def iterator_age_millis(self) -> float:
        """Estimated consumer lag (AWS's ``MillisBehindLatest``).

        How long the consumer would need, at the recent arrival rate,
        to catch up with the newest record: backlog divided by the
        smoothed incoming rate. Zero when the buffer is drained.
        """
        if self._buffer_records == 0:
            return 0.0
        rate = max(self._smoothed_rate, 1e-9)
        return 1000.0 * self._buffer_records / rate

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def emit_metrics(self, cloudwatch, clock: SimClock) -> None:
        """Flush this tick's counters to CloudWatch and reset them."""
        now = clock.now
        capacity = self.write_capacity_records(now) * clock.tick_seconds
        # Utilization is accepted/capacity — the saturating signal real
        # dashboards show; overload beyond 100% is visible through the
        # throttle metric instead.
        utilization = 100.0 * self._tick_accepted / capacity if capacity else 0.0
        # EWMA over ~60 s of ticks, then the lag estimate.
        alpha = min(1.0, clock.tick_seconds / 60.0)
        tick_rate = self._tick_accepted / clock.tick_seconds
        self._smoothed_rate += alpha * (tick_rate - self._smoothed_rate)
        cloudwatch.put_metric_frame(NAMESPACE, METRICS, now, (
            self._tick_accepted, self._tick_accepted_bytes, self._tick_throttled,
            self._tick_read, self.shard_count(now), utilization, self._buffer_records,
            self.iterator_age_millis(),
        ), self._dims_key)
        if self._bus is not None:
            self._track_throttle_episode(now, self._tick_throttled)
        self._tick_accepted = 0
        self._tick_accepted_bytes = 0
        self._tick_throttled = 0
        self._tick_read = 0

    def emit_metrics_span(
        self,
        cloudwatch,
        times: ArrayLike,
        accepted: ArrayLike,
        accepted_bytes: ArrayLike,
        throttled: ArrayLike,
        read: ArrayLike,
        utilization: ArrayLike,
        backlog: ArrayLike,
        lag_ms: ArrayLike,
        shard_count: int,
    ) -> None:
        """Columnar :meth:`emit_metrics` for a whole span of ticks.

        The caller (the pipeline's span executor) computed the per-tick
        columns — lists from the scalar recurrence, arrays from the
        vector stretch — with the exact per-tick arithmetic, and passes
        the span's ticks as a ``range``; this method lands them as one
        frame append — same values, same append order, one version bump
        per span — and replays the throttle-episode tracking tick by
        tick when a bus is attached. The shard count is constant inside
        a span (a reshard is a span boundary), so it arrives as a
        scalar, which the store keeps as a step. Tick counters are
        assumed already folded into the columns, so unlike
        :meth:`emit_metrics` there is nothing to reset here.
        """
        cloudwatch.put_metric_frame_batch(NAMESPACE, METRICS, times, (
            accepted, accepted_bytes, throttled, read, shard_count, utilization, backlog,
            lag_ms,
        ), self._dims_key)
        if self._bus is not None:
            # A fully quiet span with no episode open replays to
            # nothing: every track() call would be a no-op, so skip
            # the per-tick loop entirely.
            if self._throttle_since is None and not any(throttled):
                return
            track = self._track_throttle_episode
            for t, tick_throttled in zip(times, throttled):
                track(int(t), int(tick_throttled))

    def _track_throttle_episode(self, now: int, throttled: int) -> None:
        """Coalesce per-tick throttling into bounded start/end events.

        A sustained overload publishes two events (``throttle`` when it
        starts, ``throttle.end`` with totals when it clears) instead of
        one per tick, keeping traces readable and bounded.
        """
        if throttled:
            if self._throttle_since is None:
                self._throttle_since = now
                self._throttle_records = 0
                self._bus.publish(
                    now, self._bus_layer, "throttle", {"records": throttled}
                )
            self._throttle_records += throttled
        elif self._throttle_since is not None:
            self._bus.publish(
                now,
                self._bus_layer,
                "throttle.end",
                {"records": self._throttle_records, "since": self._throttle_since},
            )
            self._throttle_since = None
            self._throttle_records = 0
