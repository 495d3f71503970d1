"""The flow elasticity manager: Flower's run loop.

Wires everything together the way Fig. 3 describes: the workload
generator feeds the ingestion layer, the analytics layer pulls from it
and emits aggregates to the storage layer; every service pushes its
measurements to the simulated CloudWatch; per-layer control loops read
their sensor through a monitoring window and command their actuator;
the cross-platform collector snapshots the whole flow; cost meters
integrate spend per resource.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.chaos.injector import ChaosEvent, ChaosInjector
from repro.chaos.invariants import InvariantChecker, InvariantReport
from repro.chaos.schedule import ChaosSchedule
from repro.cloud.cloudwatch import SimCloudWatch
from repro.cloud.dynamodb import DynamoDBConfig, SimDynamoDBTable
from repro.cloud.dynamodb import NAMESPACE as DDB_NS
from repro.cloud.ec2 import EC2Config, SimEC2Fleet
from repro.cloud.kinesis import KinesisConfig, SimKinesisStream
from repro.cloud.kinesis import NAMESPACE as KINESIS_NS
from repro.cloud.pricing import CostMeter, PriceBook
from repro.cloud.storm import NAMESPACE as STORM_NS
from repro.cloud.storm import SimStormCluster, StormConfig, TopologyConfig
from repro.control.actuators import (
    DynamoDBReadActuator,
    DynamoDBWriteActuator,
    KinesisShardActuator,
    RetryingActuator,
    StormVMActuator,
)
from repro.control.base import ControlLoop
from repro.control.bounded import BoundedActuator
from repro.control.sensors import CloudWatchSensor
from repro.core.config import LayerControlConfig
from repro.core.errors import ConfigurationError
from repro.core.flow import FlowSpec, LayerKind, clickstream_flow_spec
from repro.monitoring.collector import MetricCollector
from repro.monitoring.dashboard import Dashboard
from repro.observability.recorder import FlightRecorder
from repro.observability.telemetry import Telemetry
from repro.simulation.clock import SimClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import derive_rng
from repro.workload.clickstream import (
    ClickStreamConfig,
    ClickStreamGenerator,
    FastClickStreamGenerator,
)
from repro.workload.generators import RateGrid, RatePattern
from repro.workload.traces import Trace

#: Per-layer controlled variable: (namespace, metric).
LAYER_SENSE: dict[LayerKind, tuple[str, str]] = {
    LayerKind.INGESTION: (KINESIS_NS, "WriteUtilization"),
    LayerKind.ANALYTICS: (STORM_NS, "CPUUtilization"),
    LayerKind.STORAGE: (DDB_NS, "WriteUtilization"),
}

#: Per-layer capacity metric: (namespace, metric).
LAYER_CAPACITY: dict[LayerKind, tuple[str, str]] = {
    LayerKind.INGESTION: (KINESIS_NS, "ShardCount"),
    LayerKind.ANALYTICS: (STORM_NS, "ProvisionedVMs"),
    LayerKind.STORAGE: (DDB_NS, "ProvisionedWriteCapacityUnits"),
}

#: Per-layer overload signal: (namespace, metric) — summed per period.
LAYER_THROTTLE: dict[LayerKind, tuple[str, str]] = {
    LayerKind.INGESTION: (KINESIS_NS, "WriteProvisionedThroughputExceeded"),
    LayerKind.ANALYTICS: (STORM_NS, "PendingTuples"),
    LayerKind.STORAGE: (DDB_NS, "WriteThrottleEvents"),
}


@dataclass(frozen=True)
class ServiceCapacities:
    """Initial provisioning of the three layers."""

    shards: int = 2
    vms: int = 2
    write_units: int = 300
    read_units: int = 100

    def __post_init__(self) -> None:
        if self.shards < 1 or self.vms < 1 or self.write_units < 1 or self.read_units < 1:
            raise ConfigurationError("all initial capacities must be >= 1")


class _Span:
    """One span of ticks as :meth:`_FlowPipeline.run_span` executes it.

    Built at the span's start, in the per-tick loop's order: the
    workload columns are drawn first (the generator touches no service
    state, so its batch can lead the span), then the dashboard reads,
    then the capacity lookups are hoisted in the loop's call order, so
    pending changes ripe at the first tick apply — and publish their
    bus events — exactly where the per-tick loop applies them.
    """

    __slots__ = (
        "now", "dt", "count", "records", "payload", "distinct", "reads",
        "record_cap", "byte_cap", "shards", "stream_read_cap", "vms",
        "analytics_cap", "poll_limit", "provisioned_vms", "billable_vms",
        "write_units", "write_cap", "read_units", "read_cap",
        "write_bucket_cap", "read_bucket_cap", "_violations",
    )

    def __init__(self, pipeline: "_FlowPipeline", now: int, dt: int, count: int) -> None:
        first_tick = now + dt
        self.now = now
        self.dt = dt
        self.count = count
        self.records, self.payload, self.distinct = pipeline.generator.generate_span(
            first_tick, count, dt
        )
        self.reads = pipeline._draw_reads(first_tick, count, dt)
        stream = pipeline.stream
        cluster = pipeline.cluster
        table = pipeline.table
        self.record_cap = stream.write_capacity_records(first_tick) * dt
        self.byte_cap = stream.write_capacity_bytes(first_tick) * dt
        self.shards = stream.shard_count(first_tick)
        self.stream_read_cap = self.shards * stream.config.read_records_per_shard_per_second * dt
        fleet = cluster.fleet
        self.vms = fleet.running_count(first_tick)
        self.analytics_cap = cluster._capacity_this_tick(self.vms, first_tick) * dt
        self.poll_limit = int(self.analytics_cap * cluster.config.poll_factor)
        self.provisioned_vms = fleet.provisioned_count(first_tick)
        self.billable_vms = fleet.billable_count(first_tick)
        # Provisioned units drive metrics, burst-bucket sizing and cost;
        # the *effective* units (provisioned minus any injected throttle
        # storm) drive what the table actually accepts per tick.
        self.write_units = table.write_capacity(first_tick)
        self.write_cap = table.effective_write_capacity(first_tick) * dt
        self.read_units = table.read_capacity(first_tick)
        self.read_cap = table.effective_read_capacity(first_tick) * dt
        self.write_bucket_cap = table.config.burst_seconds * self.write_units
        self.read_bucket_cap = table.config.burst_seconds * self.read_units
        self._violations: list[int] | None = None

    def viable_run(self, i: int) -> int:
        """How many ticks from span index ``i`` a vector stretch can run.

        A tick can run closed-form when its draws clear every hoisted
        cap, so nothing throttles, buffers or queues anywhere in the
        chain, and when its dashboard reads stay within the read
        capacity. The ticks that cannot are found once per span, on
        first use.
        """
        violations = self._violations
        if violations is None:
            records = np.asarray(self.records, dtype=np.int64)
            payload = np.asarray(self.payload, dtype=np.int64)
            limit = min(self.record_cap, self.stream_read_cap, self.poll_limit, self.analytics_cap)
            mask = (records > limit) | (payload > self.byte_cap)
            if self.reads is not None:
                mask |= np.asarray(self.reads, dtype=np.int64) > self.read_cap
            violations = self._violations = np.flatnonzero(mask).tolist()
        j = bisect_left(violations, i)
        return (violations[j] if j < len(violations) else self.count) - i


class _FlowPipeline:
    """The per-tick data path: generator → Kinesis → Storm → DynamoDB."""

    #: Bound on producer/write retry backlogs; beyond it data is dropped
    #: (a real producer's buffer is finite too) and counted.
    MAX_BACKLOG = 5_000_000

    #: Fewest vector-viable ticks in a row that :meth:`run_span` hands to
    #: a vector stretch: on shorter runs the closed-form path's fixed
    #: numpy cost exceeds what it saves over the scalar loop.
    _VECTOR_MIN_TICKS = 32

    def __init__(
        self,
        generator: ClickStreamGenerator,
        stream: SimKinesisStream,
        cluster: SimStormCluster,
        table: SimDynamoDBTable,
        cloudwatch: SimCloudWatch,
        cost_meters: dict[str, CostMeter],
        read_workload: RatePattern | None = None,
        read_rng=None,
    ) -> None:
        self.generator = generator
        self.stream = stream
        self.cluster = cluster
        self.table = table
        self.cloudwatch = cloudwatch
        self.cost_meters = cost_meters
        self.read_workload = read_workload
        self._read_grid: RateGrid | None = None
        self._read_rng = read_rng
        self._producer_backlog_records = 0
        self._producer_backlog_bytes = 0
        self._write_backlog = 0
        self.dropped_records = 0
        self.dropped_writes = 0

    def on_tick(self, clock: SimClock) -> None:
        now = clock.now
        # 1. Generate this tick's clicks; retry what was throttled
        #    before. Retries are paced like a real producer library's
        #    bounded buffer: at most two capacity-windows of backlog are
        #    re-offered per tick, so the throttle metric counts paced
        #    attempts rather than the whole outstanding buffer.
        batch = self.generator.generate(clock)
        capacity = self.stream.write_capacity_records(now) * clock.tick_seconds
        retry_records = min(self._producer_backlog_records, 2 * capacity)
        if self._producer_backlog_records:
            retry_bytes = int(
                self._producer_backlog_bytes * retry_records / self._producer_backlog_records
            )
        else:
            retry_bytes = 0
        result = self.stream.put_records(
            batch.records + retry_records, batch.payload_bytes + retry_bytes, clock
        )
        backlog_records = self._producer_backlog_records - retry_records + result.throttled_records
        backlog_bytes = self._producer_backlog_bytes - retry_bytes + result.throttled_bytes
        if backlog_records > self.MAX_BACKLOG:
            self.dropped_records += backlog_records - self.MAX_BACKLOG
            backlog_bytes = int(backlog_bytes * self.MAX_BACKLOG / backlog_records)
            backlog_records = self.MAX_BACKLOG
        self._producer_backlog_records = backlog_records
        self._producer_backlog_bytes = backlog_bytes

        # 2. Analytics pulls, processes, emits windowed aggregates.
        writes = self.cluster.pull_and_process(self.stream, batch.distinct_keys, clock)

        # 3. Storage absorbs the writes; throttled writes are retried,
        #    paced the same way as producer retries. Pacing follows the
        #    *effective* capacity so a throttle storm slows retries too.
        write_capacity = self.table.effective_write_capacity(now) * clock.tick_seconds
        retry_writes = min(self._write_backlog, 2 * write_capacity)
        write_result = self.table.write(writes + retry_writes, clock)
        backlog = self._write_backlog - retry_writes + write_result.throttled_units
        if backlog > self.MAX_BACKLOG:
            self.dropped_writes += backlog - self.MAX_BACKLOG
            backlog = self.MAX_BACKLOG
        self._write_backlog = backlog

        # 3b. Dashboard readers query the aggregates (read units); the
        #     demo's reference architecture is a "real-time sliding-
        #     window dashboard over streaming data". Reads that throttle
        #     are lost page views, not retried.
        if self.read_workload is not None:
            # Batched like the click generator: read rates come from a
            # chunked grid, not a rate() call per tick (bit-identical by
            # the values() contract).
            grid = self._read_grid
            if grid is None or grid.step != clock.tick_seconds:
                grid = self._read_grid = RateGrid(self.read_workload, clock.tick_seconds)
            expected = grid.rate_at(now) * clock.tick_seconds
            read_units = int(self._read_rng.poisson(expected)) if expected > 0 else 0
            self.table.read(read_units, clock)

        # 4. Every service reports to CloudWatch.
        self.stream.emit_metrics(self.cloudwatch, clock)
        self.cluster.emit_metrics(self.cloudwatch, clock)
        self.table.emit_metrics(self.cloudwatch, clock)

        # 5. Meter this tick's spend. Kinesis has two cost dimensions
        #    (Eq. 4's c_d): shard-hours and PUT payload units (one unit
        #    per click record at the configured record sizes).
        dt = clock.tick_seconds
        self.cost_meters["ingestion"].accrue(self.stream.shard_count(now), dt)
        self.cost_meters["ingestion"].record_usage(result.accepted_records)
        self.cost_meters["analytics"].accrue(self.cluster.fleet.billable_count(now), dt)
        self.cost_meters["storage"].accrue(self.table.write_capacity(now), dt)
        self.cost_meters["storage_reads"].accrue(self.table.read_capacity(now), dt)

    # ------------------------------------------------------------------
    # Span execution (see DESIGN.md "Span execution contract")
    # ------------------------------------------------------------------
    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        """Latest span end the data path can accept, at most ``limit``.

        Two kinds of internal events bound a span (aggregation-window
        flushes do *not*: :meth:`run_span` draws its CPU-noise normals
        in flush-bounded segments, so a flush's Poisson draw lands at
        exactly the bitstream position the per-tick loop gives it):

        * a pending reshard / capacity update / rebalance completing —
          the span must end on the last tick before the first affected
          tick, unless that first affected tick is the very next one
          (then :meth:`run_span`'s capacity hoist applies it);
        * the running VM count changing (a boot completing or a future
          termination) — the affected tick always runs as its own
          single-tick span, because the change can *trigger* a topology
          rebalance whose end time is unknowable before it happens.
        """
        first_tick = now + tick_seconds
        horizon = limit
        for event in (
            self.stream.next_capacity_event(now),
            self.table.next_capacity_event(now),
            self.cluster.next_capacity_event(now),
        ):
            if event is None or event <= first_tick:
                continue
            affected = now + tick_seconds * (-(-(event - now) // tick_seconds))
            if affected - tick_seconds < horizon:
                horizon = affected - tick_seconds
        fleet_event = self.cluster.fleet.next_capacity_event(now)
        if fleet_event is not None:
            affected = now + tick_seconds * (-(-(fleet_event - now) // tick_seconds))
            bound = affected - tick_seconds if affected > first_tick else first_tick
            if bound < horizon:
                horizon = bound
        return horizon

    def run_span(self, clock: SimClock, span_end: int) -> None:
        """Execute the ticks ``(clock.now, span_end]`` as one batch.

        Bit-identical to calling :meth:`on_tick` once per tick (the span
        execution contract, DESIGN.md). A :class:`_Span` draws the
        workload and dashboard-read columns once and hoists the capacity
        coefficients once — :meth:`span_horizon` guarantees they are
        constant across the span. Execution then alternates two
        stretches over those columns: the closed-form
        :meth:`_vector_stretch` wherever every backlog is empty and the
        draws clear every cap for at least :data:`_VECTOR_MIN_TICKS`
        ticks, and the bit-exact :meth:`_scalar_stretch` recurrence
        everywhere else. The metric columns land as one frame append per
        service, and the costs accrue once, at the end of the span.
        """
        dt = clock.tick_seconds
        count = (span_end - clock.now) // dt
        span = _Span(self, clock.now, dt, count)
        stream = self.stream
        accepted_before = stream.total_accepted_records
        min_run = self._VECTOR_MIN_TICKS
        parts = []
        i = 0
        while i < count:
            run = span.viable_run(i) if count - i >= min_run and self._drained() else 0
            if run >= min_run:
                i, columns = self._vector_stretch(span, i, i + run)
            else:
                i, columns = self._scalar_stretch(span, i)
            parts.append(columns)
        if len(parts) == 1:
            columns = parts[0]
        else:
            columns = [np.concatenate(column) for column in zip(*parts)]
        (
            times, k_accepted, k_accepted_bytes, k_throttled, k_read, k_util, k_backlog,
            k_lag, s_cpu, s_processed, s_pending, s_writes, d_consumed, d_throttled,
            d_util, d_burst, d_read_consumed, d_read_throttled, d_read_util,
        ) = columns

        # Columnar metric emission (same values, same append order).
        cloudwatch = self.cloudwatch
        stream.emit_metrics_span(
            cloudwatch, times, k_accepted, k_accepted_bytes, k_throttled, k_read,
            k_util, k_backlog, k_lag, span.shards,
        )
        self.cluster.emit_metrics_span(
            cloudwatch, times, s_cpu, s_processed, s_pending, s_writes,
            span.vms, span.provisioned_vms,
        )
        self.table.emit_metrics_span(
            cloudwatch, times, d_consumed, d_throttled, d_util, d_burst,
            d_read_consumed, d_read_throttled, d_read_util,
            span.write_units, span.read_units,
        )

        # Costs: every accrued quantity is an integer and constant
        # across the span, so one accrue over count*dt seconds sums
        # exactly (integer-valued float adds below 2**53 are exact);
        # usage volumes are ints and sum exactly too.
        span_seconds = count * dt
        meters = self.cost_meters
        meters["ingestion"].accrue(span.shards, span_seconds)
        meters["ingestion"].record_usage(stream.total_accepted_records - accepted_before)
        meters["analytics"].accrue(span.billable_vms, span_seconds)
        meters["storage"].accrue(span.write_units, span_seconds)
        meters["storage_reads"].accrue(span.read_units, span_seconds)

    def _draw_reads(self, first_tick: int, count: int, dt: int) -> list[int] | None:
        """A span's dashboard read units, one Poisson draw per tick.

        The reads have an RNG stream of their own, so one array draw
        consumes it exactly as the per-tick loop's scalar draws do;
        zero-rate ticks draw nothing there and nothing here.
        """
        if self.read_workload is None:
            return None
        grid = self._read_grid
        if grid is None or grid.step != dt:
            grid = self._read_grid = RateGrid(self.read_workload, dt)
        expected = np.maximum(grid.rates_array(first_tick, count) * dt, 0.0)
        return self._read_rng.poisson(expected).tolist()

    def _drained(self) -> bool:
        """Whether every backlog, buffer and queue on the path is empty."""
        stream = self.stream
        return not (
            self._producer_backlog_records
            or self._producer_backlog_bytes
            or self._write_backlog
            or stream._buffer_records
            or self.cluster._pending_records
        )

    def _scalar_stretch(self, span: "_Span", start: int) -> tuple[int, tuple]:
        """The bit-exact per-tick recurrence, from span index ``start``.

        Runs to the end of the span, or stops at a window boundary where
        every backlog is empty ahead of a vector-viable run of at least
        :data:`_VECTOR_MIN_TICKS` ticks. It stops only where its
        CPU-noise buffer is used up, so the vector stretch that follows
        draws from the right bitstream position. Returns the stop index
        and the stretch's metric columns.
        """
        dt = span.dt
        count = span.count
        records_col = span.records
        payload_col = span.payload
        distinct_col = span.distinct
        reads = span.reads
        has_reads = reads is not None
        record_cap = span.record_cap
        byte_cap = span.byte_cap
        stream_read_cap = span.stream_read_cap
        vms = span.vms
        analytics_cap = span.analytics_cap
        poll_limit = span.poll_limit
        write_cap = span.write_cap
        read_cap = span.read_cap
        write_bucket_cap = span.write_bucket_cap
        read_bucket_cap = span.read_bucket_cap
        viable_run = span.viable_run
        min_run = self._VECTOR_MIN_TICKS
        stream = self.stream
        cluster = self.cluster
        table = self.table

        # CPU-noise normals are drawn in flush-bounded segments: the
        # per-tick loop's draw order on the cluster's stream is one
        # normal per tick with a flush Poisson interleaved at each
        # window boundary, so each refill batches exactly the normals up
        # to (and including) the next flush tick. Batched normals are
        # bit-identical to the same number of scalar draws.
        noise_std = cluster.config.cpu_noise_std
        storm_normal = cluster._rng.normal
        noise_buf: list[float] = []
        noise_idx = noise_end = 0

        # Service state into locals for the recurrence.
        max_backlog = self.MAX_BACKLOG
        backlog_records = self._producer_backlog_records
        backlog_bytes = self._producer_backlog_bytes
        dropped_records = self.dropped_records
        buffer_records = stream._buffer_records
        smoothed_rate = stream._smoothed_rate
        pending = cluster._pending_records
        window_keys = cluster._window_keys
        window_records = cluster._window_records
        window_elapsed = cluster._window_elapsed
        window_seconds = cluster.config.window_seconds
        distinct_estimator = cluster._distinct_estimator
        storm_poisson = cluster._rng.poisson
        idle = cluster.config.cpu_idle_percent
        burst = table._burst_bucket
        read_burst = table._read_burst_bucket
        write_backlog = self._write_backlog
        dropped_writes = self.dropped_writes
        alpha = min(1.0, dt / 60.0)
        two_record_cap = 2 * record_cap
        two_write_cap = 2 * write_cap

        times: list[int] = []
        k_accepted: list[int] = []
        k_accepted_bytes: list[int] = []
        k_throttled: list[int] = []
        k_read: list[int] = []
        k_util: list[float] = []
        k_backlog: list[int] = []
        k_lag: list[float] = []
        s_cpu: list[float] = []
        s_processed: list[int] = []
        s_pending: list[int] = []
        s_writes: list[int] = []
        d_consumed: list[int] = []
        d_throttled: list[int] = []
        d_util: list[float] = []
        d_burst: list[float] = []
        d_read_consumed: list[int] = []
        d_read_throttled: list[int] = []
        d_read_util: list[float] = []
        # Bound-method locals: ~20 column appends per tick make the
        # attribute lookups measurable in this loop.
        times_append = times.append
        k_accepted_append = k_accepted.append
        k_accepted_bytes_append = k_accepted_bytes.append
        k_throttled_append = k_throttled.append
        k_read_append = k_read.append
        k_util_append = k_util.append
        k_backlog_append = k_backlog.append
        k_lag_append = k_lag.append
        s_cpu_append = s_cpu.append
        s_processed_append = s_processed.append
        s_pending_append = s_pending.append
        s_writes_append = s_writes.append
        d_consumed_append = d_consumed.append
        d_throttled_append = d_throttled.append
        d_util_append = d_util.append
        d_burst_append = d_burst.append
        d_read_consumed_append = d_read_consumed.append
        d_read_throttled_append = d_read_throttled.append
        d_read_util_append = d_read_util.append

        cpu = cluster._tick_cpu
        processed = cluster._tick_processed
        writes = cluster._tick_writes_emitted
        t = span.now + start * dt
        stop = count
        for i in range(start, count):
            if noise_idx == noise_end:
                # A window boundary: the one place a vector stretch may
                # take over, since no drawn normal is left unused.
                if (
                    i > start
                    and not (
                        buffer_records or pending or backlog_records or write_backlog
                        or backlog_bytes
                    )
                    and viable_run(i) >= min_run
                ):
                    stop = i
                    break
                # Refill up to (and including) the next flush tick;
                # window_elapsed has not yet counted this tick.
                seg = -(-(window_seconds - window_elapsed) // dt)
                if seg < 1:
                    seg = 1
                if seg > count - i:
                    seg = count - i
                if noise_std:
                    noise_buf = storm_normal(0.0, noise_std, size=seg).tolist()
                else:
                    noise_buf = [0.0] * seg
                noise_idx = 0
                noise_end = seg
            t += dt
            times_append(t)
            records = records_col[i]
            payload = payload_col[i]

            # 1. Producer retries + Kinesis put (see on_tick step 1).
            retry_records = min(backlog_records, two_record_cap)
            if backlog_records:
                retry_bytes = int(backlog_bytes * retry_records / backlog_records)
            else:
                retry_bytes = 0
            offered = records + retry_records
            offered_bytes = payload + retry_bytes
            if offered == 0:
                accepted = 0
                accepted_bytes = 0
                throttled = 0
                throttled_bytes = 0
            else:
                record_fraction = min(1.0, record_cap / offered)
                byte_fraction = min(1.0, byte_cap / offered_bytes) if offered_bytes else 1.0
                fraction = min(record_fraction, byte_fraction)
                accepted = int(offered * fraction)
                accepted_bytes = int(offered_bytes * fraction)
                buffer_records += accepted
                throttled = offered - accepted
                throttled_bytes = offered_bytes - accepted_bytes
            backlog_records = backlog_records - retry_records + throttled
            backlog_bytes = backlog_bytes - retry_bytes + throttled_bytes
            if backlog_records > max_backlog:
                dropped_records += backlog_records - max_backlog
                backlog_bytes = int(backlog_bytes * max_backlog / backlog_records)
                backlog_records = max_backlog

            # 2. Storm pulls and processes (pull_and_process, inlined).
            wanted = poll_limit - pending
            if wanted < 0:
                wanted = 0
            handed = min(wanted, buffer_records, stream_read_cap)
            buffer_records -= handed
            pending += handed
            processed = min(pending, analytics_cap)
            pending -= processed
            if vms > 0:
                if analytics_cap > 0:
                    cpu = idle + (100.0 - idle) * (processed / analytics_cap)
                else:
                    cpu = idle
                if pending > 0:
                    cpu = 100.0
            else:
                cpu = 0.0
            cpu = float(min(100.0, max(0.0, cpu + noise_buf[noise_idx])))
            noise_idx += 1
            window_keys += distinct_col[i]
            window_records += processed
            window_elapsed += dt
            writes = 0
            if window_elapsed >= window_seconds:
                if distinct_estimator is not None:
                    expected = distinct_estimator(window_records)
                    writes = int(storm_poisson(expected)) if expected > 0 else 0
                else:
                    ticks_in_window = max(1, window_elapsed // dt)
                    writes = int(round(window_keys / ticks_in_window))
                window_keys = 0.0
                window_records = 0
                window_elapsed = 0

            # 3. DynamoDB writes + retry pacing (on_tick step 3).
            retry_writes = min(write_backlog, two_write_cap)
            units = writes + retry_writes
            write_accepted = min(units, write_cap)
            excess = units - write_accepted
            if excess > 0 and burst > 0:
                from_burst = int(min(excess, burst))
                write_accepted += from_burst
                excess -= from_burst
                burst -= from_burst
            unused = max(0, write_cap - units)
            burst = min(write_bucket_cap, burst + unused)
            write_backlog = write_backlog - retry_writes + excess
            if write_backlog > max_backlog:
                dropped_writes += write_backlog - max_backlog
                write_backlog = max_backlog

            # 3b. Dashboard reads (on_tick step 3b).
            if has_reads:
                read_units = reads[i]
                read_accepted = min(read_units, read_cap)
                read_excess = read_units - read_accepted
                if read_excess > 0 and read_burst > 0:
                    from_burst = int(min(read_excess, read_burst))
                    read_accepted += from_burst
                    read_excess -= from_burst
                    read_burst -= from_burst
                read_unused = max(0, read_cap - read_units)
                read_burst = min(read_bucket_cap, read_burst + read_unused)
            else:
                read_accepted = 0
                read_excess = 0

            # 4. Metric columns, with the emit-time arithmetic verbatim.
            k_accepted_append(accepted)
            k_accepted_bytes_append(accepted_bytes)
            k_throttled_append(throttled)
            k_read_append(handed)
            k_util_append(100.0 * accepted / record_cap if record_cap else 0.0)
            k_backlog_append(buffer_records)
            tick_rate = accepted / dt
            smoothed_rate += alpha * (tick_rate - smoothed_rate)
            if buffer_records == 0:
                k_lag_append(0.0)
            else:
                k_lag_append(1000.0 * buffer_records / max(smoothed_rate, 1e-9))
            s_cpu_append(cpu)
            s_processed_append(processed)
            s_pending_append(pending)
            s_writes_append(writes)
            d_consumed_append(write_accepted)
            d_throttled_append(excess)
            d_util_append(100.0 * write_accepted / write_cap if write_cap else 0.0)
            d_burst_append(burst)
            d_read_consumed_append(read_accepted)
            d_read_throttled_append(read_excess)
            d_read_util_append(100.0 * read_accepted / read_cap if read_cap else 0.0)

        # Write service state back.
        self._producer_backlog_records = backlog_records
        self._producer_backlog_bytes = backlog_bytes
        self.dropped_records = dropped_records
        self._write_backlog = write_backlog
        self.dropped_writes = dropped_writes
        stream._buffer_records = buffer_records
        stream._smoothed_rate = smoothed_rate
        stream.total_accepted_records += sum(k_accepted)
        stream.total_read_records += sum(k_read)
        cluster._pending_records = pending
        cluster.total_processed += sum(s_processed)
        cluster.total_writes_emitted += sum(s_writes)
        table.total_write_accepted += sum(d_consumed)
        cluster._window_keys = window_keys
        cluster._window_records = window_records
        cluster._window_elapsed = window_elapsed
        cluster._tick_cpu = cpu
        cluster._tick_processed = processed
        cluster._tick_writes_emitted = writes
        table._burst_bucket = burst
        table._read_burst_bucket = read_burst
        return stop, (
            times, k_accepted, k_accepted_bytes, k_throttled, k_read, k_util, k_backlog,
            k_lag, s_cpu, s_processed, s_pending, s_writes, d_consumed, d_throttled,
            d_util, d_burst, d_read_consumed, d_read_throttled, d_read_util,
        )

    def _vector_stretch(self, span: "_Span", start: int, stop: int) -> tuple[int, tuple]:
        """Closed-form columns for the span indices ``start`` .. ``stop - 1``.

        The caller guarantees that every backlog, buffer and queue is
        empty at ``start`` and that each tick's draws clear every
        hoisted cap (:meth:`_Span.viable_run`). The recurrence then
        degenerates: accepted = handed = processed = records, nothing
        buffers or throttles, and reads never dip into the burst bucket.
        Only storage can still go live, when a window flush's writes
        overflow the write burst bucket: the stretch then ends on that
        flush tick and a scalar stretch retries the write backlog.
        Returns the stop index and the stretch's metric columns.
        """
        dt = span.dt
        records_col = span.records
        distinct_col = span.distinct
        write_cap = span.write_cap
        write_bucket_cap = span.write_bucket_cap
        stream = self.stream
        cluster = self.cluster
        table = self.table

        # Window walk. Flush boundaries cut the stretch into the
        # segments the scalar loop draws its CPU-noise normals in, each
        # flush's Poisson interleaved at the same bitstream position.
        # A flush's writes land on the table at once: up to the
        # effective rate, the excess from the burst bucket, which
        # refills by write_cap per tick in between. min(cap, b + k *
        # write_cap) is that per-tick refill exactly, because the
        # bucket holds integer-valued floats below 2**53.
        window_seconds = cluster.config.window_seconds
        distinct_estimator = cluster._distinct_estimator
        storm_poisson = cluster._rng.poisson
        noise_std = cluster.config.cpu_noise_std
        storm_normal = cluster._rng.normal
        wk = cluster._window_keys
        wr = cluster._window_records
        we = cluster._window_elapsed
        burst_before = burst = table._burst_bucket
        noise_parts: list[np.ndarray] = []
        flush_at: list[int] = []
        flush_writes: list[int] = []
        flush_accepted: list[int] = []
        flush_burst: list[float] = []
        excess = 0
        last = start - 1
        i = start
        while i < stop:
            seg = -(-(window_seconds - we) // dt)
            if seg < 1:
                seg = 1
            trunc = seg if seg <= stop - i else stop - i
            if noise_std:
                noise_parts.append(storm_normal(0.0, noise_std, size=trunc))
            wk += sum(distinct_col[i : i + trunc])
            wr += sum(records_col[i : i + trunc])
            we += trunc * dt
            i += trunc
            if trunc < seg:
                break
            if distinct_estimator is not None:
                expected = distinct_estimator(wr)
                writes = int(storm_poisson(expected)) if expected > 0 else 0
            else:
                writes = int(round(wk / max(1, we // dt)))
            wk = 0.0
            wr = 0
            we = 0
            if not writes:
                continue
            tick = i - 1
            if tick - last > 1:
                burst = min(write_bucket_cap, burst + (tick - last - 1) * write_cap)
            accepted = min(writes, write_cap)
            excess = writes - accepted
            if excess > 0 and burst > 0:
                from_burst = int(min(excess, burst))
                accepted += from_burst
                excess -= from_burst
                burst -= from_burst
            burst = min(write_bucket_cap, burst + max(0, write_cap - writes))
            last = tick
            flush_at.append(tick - start)
            flush_writes.append(writes)
            flush_accepted.append(accepted)
            flush_burst.append(burst)
            if excess:
                stop = i
                break

        n = stop - start
        records = np.asarray(records_col[start:stop], dtype=np.int64)
        payload = np.asarray(span.payload[start:stop], dtype=np.int64)
        zeros_i = np.zeros(n, dtype=np.int64)
        zeros_f = np.zeros(n)
        times = np.arange(
            span.now + (start + 1) * dt, span.now + (stop + 1) * dt, dt, dtype=np.int64
        )

        idle = cluster.config.cpu_idle_percent
        if span.vms <= 0:
            s_cpu = zeros_f
        elif span.analytics_cap > 0:
            s_cpu = idle + (100.0 - idle) * (records / span.analytics_cap)
        else:
            s_cpu = np.full(n, float(idle))
        if noise_std:
            s_cpu = s_cpu + np.concatenate(noise_parts)
        s_cpu = np.minimum(100.0, np.maximum(0.0, s_cpu))

        # Storage columns: writes land only on flush ticks, and each
        # tick's bucket is the last flush's balance (or the stretch's
        # opening one) refilled once per tick since.
        s_writes = zeros_i.copy()
        d_consumed = zeros_i.copy()
        d_throttled = zeros_i.copy()
        at = np.asarray(flush_at, dtype=np.int64)
        s_writes[at] = flush_writes
        d_consumed[at] = flush_accepted
        d_throttled[n - 1] = excess
        ticks = np.arange(n)
        since = np.searchsorted(at, ticks, side="right")
        base = np.asarray([burst_before, *flush_burst], dtype=np.float64)[since]
        origin = np.asarray([-1, *flush_at], dtype=np.int64)[since]
        d_burst = np.minimum(write_bucket_cap, base + (ticks - origin) * write_cap)
        d_util = (100.0 * d_consumed) / write_cap if write_cap else zeros_f

        k_util = (100.0 * records) / span.record_cap if span.record_cap else zeros_f
        smoothed_rate = stream._smoothed_rate
        alpha = min(1.0, dt / 60.0)
        for r in records_col[start:stop]:
            smoothed_rate += alpha * (r / dt - smoothed_rate)

        # Dashboard reads never exceed the read capacity here, so every
        # tick refills the read bucket by read_cap - reads >= 0, and the
        # capped per-tick refills add up to one capped sum.
        read_burst = table._read_burst_bucket
        d_read_consumed = zeros_i
        d_read_util = zeros_f
        if span.reads is not None:
            read_cap = span.read_cap
            d_read_consumed = np.asarray(span.reads[start:stop], dtype=np.int64)
            read_burst = min(
                span.read_bucket_cap,
                read_burst + (n * read_cap - int(d_read_consumed.sum())),
            )
            if read_cap:
                d_read_util = (100.0 * d_read_consumed) / read_cap

        # Write service state back (the scalar stretch's, in closed form).
        span_records = sum(records_col[start:stop])
        self._write_backlog = min(excess, self.MAX_BACKLOG)
        self.dropped_writes += excess - self._write_backlog
        stream._smoothed_rate = smoothed_rate
        stream.total_accepted_records += span_records
        stream.total_read_records += span_records
        cluster.total_processed += span_records
        cluster.total_writes_emitted += sum(flush_writes)
        table.total_write_accepted += sum(flush_accepted)
        cluster._window_keys = wk
        cluster._window_records = wr
        cluster._window_elapsed = we
        cluster._tick_cpu = float(s_cpu[n - 1])
        cluster._tick_processed = records_col[stop - 1]
        cluster._tick_writes_emitted = int(s_writes[n - 1])
        table._burst_bucket = float(d_burst[n - 1])
        table._read_burst_bucket = read_burst
        return stop, (
            times, records, payload, zeros_i, records, k_util, zeros_i, zeros_f,
            s_cpu, records, zeros_i, s_writes, d_consumed, d_throttled, d_util, d_burst,
            d_read_consumed, zeros_i, d_read_util,
        )


@dataclass
class FlowRunResult:
    """Everything a finished run exposes for analysis and reporting."""

    duration_seconds: int
    flow: FlowSpec
    cloudwatch: SimCloudWatch
    collector: MetricCollector
    loops: dict[LayerKind, ControlLoop]
    cost_meters: dict[str, CostMeter]
    dropped_records: int
    dropped_writes: int
    sample_period: int = 60
    layer_dimensions: dict[LayerKind, dict[str, str]] = field(default_factory=dict)
    read_loop: ControlLoop | None = None
    recorder: FlightRecorder | None = None
    chaos_events: list[ChaosEvent] = field(default_factory=list)
    invariants: InvariantReport | None = None
    #: Always-on counters/gauges/histograms (None only when disabled).
    telemetry: Telemetry | None = None
    #: Wall-clock seconds the engine run took (real time, not simulated).
    wall_seconds: float = 0.0
    #: Whether the run used the bit-exact workload path. ``False`` marks
    #: the block-vectorized approximate (fast) path — statistically
    #: equivalent, never bit-comparable to exact runs.
    exact: bool = True

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def trace(
        self,
        namespace: str,
        metric: str,
        period: int | None = None,
        statistic: str = "Average",
        dimensions: dict[str, str] | None = None,
    ) -> Trace:
        """A metric aggregated to ``period`` (default: the sample period)."""
        period = period or self.sample_period
        datapoints = self.cloudwatch.get_metric_statistics(
            namespace, metric, 0, self.duration_seconds, period, statistic, dimensions
        )
        name = f"{namespace}/{metric}"
        return Trace.from_series(name, *zip(*datapoints)) if datapoints else Trace(name)

    def utilization_trace(self, kind: LayerKind, period: int | None = None) -> Trace:
        namespace, metric = LAYER_SENSE[kind]
        return self.trace(namespace, metric, period, dimensions=self.layer_dimensions.get(kind))

    def capacity_trace(self, kind: LayerKind, period: int | None = None) -> Trace:
        namespace, metric = LAYER_CAPACITY[kind]
        return self.trace(namespace, metric, period, dimensions=self.layer_dimensions.get(kind))

    def throttle_trace(self, kind: LayerKind, period: int | None = None) -> Trace:
        namespace, metric = LAYER_THROTTLE[kind]
        statistic = "Average" if kind == LayerKind.ANALYTICS else "Sum"
        return self.trace(namespace, metric, period, statistic, self.layer_dimensions.get(kind))

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    @property
    def cost_by_layer(self) -> dict[str, float]:
        return {name: meter.total_cost for name, meter in self.cost_meters.items()}

    @property
    def total_cost(self) -> float:
        return sum(self.cost_by_layer.values())

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def dashboard(self) -> str:
        """Render the all-in-one-place view of the finished run."""
        return Dashboard(
            self.collector,
            title=f"Flower — {self.flow.name}",
            recorder=self.recorder,
            telemetry=self.telemetry,
        ).render()


class FlowElasticityManager:
    """Builds and runs one managed data analytics flow."""

    def __init__(
        self,
        workload: RatePattern,
        capacities: ServiceCapacities | None = None,
        controls: dict[LayerKind, LayerControlConfig] | None = None,
        flow: FlowSpec | None = None,
        price_book: PriceBook | None = None,
        seed: int = 0,
        tick_seconds: int = 1,
        snapshot_period: int = 60,
        share_bounds: dict[LayerKind, int] | None = None,
        share_schedule=None,
        read_workload: RatePattern | None = None,
        read_control: LayerControlConfig | None = None,
        clickstream: ClickStreamConfig | None = None,
        kinesis: KinesisConfig | None = None,
        storm: StormConfig | None = None,
        topology: "TopologyConfig | None" = None,
        ec2: EC2Config | None = None,
        dynamodb: DynamoDBConfig | None = None,
        recorder: FlightRecorder | None = None,
        span_execution: bool = True,
        chaos: ChaosSchedule | None = None,
        invariants: bool = True,
        telemetry: bool = True,
        engine: SimulationEngine | None = None,
        region=None,
        flow_id: str | None = None,
        coordinated: bool = False,
        exact: bool = True,
    ) -> None:
        self.flow = flow or clickstream_flow_spec()
        #: Identifies this flow inside a multi-flow region run; None for
        #: standalone flows. Scopes service names (and through them the
        #: metric dimensions) and engine task names.
        self.flow_id = flow_id
        self.region = region
        self.capacities = capacities or ServiceCapacities()
        self.controls = dict(controls or {})
        self.share_bounds = dict(share_bounds or {})
        for kind, bound in self.share_bounds.items():
            if bound < 1:
                raise ConfigurationError(
                    f"share bound for {kind.name} must be >= 1, got {bound}"
                )
        self.share_schedule = share_schedule
        if share_schedule is not None and self.share_bounds:
            raise ConfigurationError(
                "pass either static share_bounds or a share_schedule, not both"
            )
        if share_schedule is not None:
            # The schedule's first window seeds the static bounds; a
            # periodic task keeps them tracking the active window.
            self.share_bounds = dict(share_schedule.bounds_at(0))
        self.price_book = price_book or PriceBook()
        self.seed = seed
        self.snapshot_period = snapshot_period
        # Always-on telemetry (unlike the opt-in recorder): written only
        # at control boundaries, so it stays inside the <2% budget.
        self.telemetry: Telemetry | None = Telemetry() if telemetry else None

        self.cloudwatch = SimCloudWatch()
        # Flow-scoped service names carry the flow id into every metric
        # dimension, event and scorecard of a multi-flow region run.
        prefix = f"{flow_id}-" if flow_id else ""
        self.stream = SimKinesisStream(
            name=f"{prefix}clickstream", shards=self.capacities.shards, config=kinesis
        )
        self.fleet = SimEC2Fleet(
            config=ec2 or EC2Config(instance_type=self.flow.analytics.resource),
            initial_instances=self.capacities.vms,
        )
        self.table = SimDynamoDBTable(
            name=f"{prefix}page-aggregates",
            write_units=self.capacities.write_units,
            read_units=self.capacities.read_units,
            config=dynamodb,
        )
        #: Workload-path exactness. ``exact=True`` (the default) is the
        #: bit-exact reference; ``exact=False`` swaps in the
        #: block-vectorized approximate generator (see the approximation
        #: contract in DESIGN.md). The flag rides through the run result
        #: and scorecards so approximate numbers can never masquerade as
        #: exact ones.
        self.exact = bool(exact)
        generator_cls = ClickStreamGenerator if self.exact else FastClickStreamGenerator
        self.generator = generator_cls(
            workload, rng=derive_rng(seed, "clickstream"), config=clickstream
        )
        self.cluster = SimStormCluster(
            self.fleet,
            config=storm,
            rng=derive_rng(seed, "storm.cpu"),
            name=f"{prefix}clickstream-topology",
            distinct_estimator=self.generator.expected_distinct,
            topology=topology,
        )
        if region is not None:
            if flow_id is None:
                raise ConfigurationError("a region-attached flow needs a flow_id")
            self.fleet.attach_region(region, flow_id)
            self.stream.attach_region(region, flow_id)
            self.table.attach_region(region, flow_id)
            self.cluster.attach_region(region)

        self.cost_meters = {
            "ingestion": CostMeter(self.price_book, self.flow.ingestion.resource),
            "analytics": CostMeter(self.price_book, self.flow.analytics.resource),
            "storage": CostMeter(self.price_book, self.flow.storage.resource),
            "storage_reads": CostMeter(self.price_book, "dynamodb.rcu"),
        }

        # Service names are fixed at construction, so the per-layer
        # metric dimension dicts are too; sensors, the collector and the
        # run result all share these instead of rebuilding them.
        self._layer_dims: dict[LayerKind, dict[str, str]] = {
            LayerKind.INGESTION: {"StreamName": self.stream.name},
            LayerKind.ANALYTICS: {"Topology": self.cluster.name},
            LayerKind.STORAGE: {"TableName": self.table.name},
        }

        # Flight recorder: everything downstream is opt-in — services
        # publish to the bus, loops feed the decision audit log, and the
        # engine runs its profiled loop — only when a recorder is given.
        self.recorder = recorder
        if recorder is not None:
            self.stream.attach_bus(recorder.bus, "ingestion")
            self.cluster.attach_bus(recorder.bus, "analytics")
            self.table.attach_bus(recorder.bus, "storage")

        if engine is not None:
            # Shared engine (multi-flow region run): the caller owns the
            # clock, span mode and run loop, and runs this flow's data
            # path; this manager registers only its other components and
            # its tasks on it.
            self.engine = engine
            self._owns_engine = False
        else:
            self.engine = SimulationEngine(
                clock=SimClock(tick_seconds=tick_seconds), span_execution=span_execution
            )
            self._owns_engine = True
        if recorder is not None and self._owns_engine:
            self.engine.profiler = recorder.profiler
        self._pipeline = _FlowPipeline(
            self.generator,
            self.stream,
            self.cluster,
            self.table,
            self.cloudwatch,
            self.cost_meters,
            read_workload=read_workload,
            read_rng=derive_rng(seed, "dashboard.reads"),
        )
        if self._owns_engine:
            self.engine.add_component(self._pipeline)

        self.read_loop: ControlLoop | None = None
        if read_control is not None:
            if read_workload is None:
                raise ConfigurationError(
                    "read_control requires a read_workload to control against"
                )
            read_actuator = RetryingActuator(DynamoDBReadActuator(self.table))
            if self.recorder is not None:
                read_actuator.instrument(self.recorder.bus, "storage")
            read_sensor = CloudWatchSensor(
                self.cloudwatch,
                DDB_NS,
                "ReadUtilization",
                window=read_control.window,
                statistic=read_control.statistic,
                dimensions=self._dimensions_for(LayerKind.STORAGE),
                hold_last_for=3 * read_control.window,
            )
            if self.recorder is not None:
                read_sensor.instrument(self.recorder.bus, "storage")
            self.read_loop = ControlLoop(
                name="storage-reads",
                sensor=read_sensor,
                controller=read_control.controller,
                actuator=read_actuator,
                period=read_control.period,
                decision_log=self.recorder.decisions if self.recorder else None,
                event_bus=self.recorder.bus if self.recorder else None,
                telemetry=self.telemetry,
            )
            self.engine.every(
                self.read_loop.period, self.read_loop.step, name=f"{prefix}control.reads"
            )

        self.loops = self._build_loops()
        for kind, loop in self.loops.items():
            self.engine.every(
                loop.period, loop.step, name=f"{prefix}control.{kind.name.lower()}"
            )
        if self.share_schedule is not None and self.loops:
            self.engine.every(
                snapshot_period, self._apply_scheduled_bounds, name=f"{prefix}share-schedule"
            )

        self.collector = self._build_collector()
        # Keep the task name the tests and profiler reports know; the
        # wrapper adds the telemetry gauge sample at the same boundary.
        self.engine.every(snapshot_period, self._snapshot, name=f"{prefix}snapshots")

        # Component order matters: pipeline → invariant checker → chaos
        # injector. The checker audits each boundary's *pre-injection*
        # state (so its cost integration sees the same capacities the
        # pipeline accrued), and faults applied at tick T take effect
        # from T+1 in both per-tick and span execution.
        self.invariant_checker: InvariantChecker | None = None
        if invariants:
            self.invariant_checker = InvariantChecker(
                pipeline=self._pipeline,
                generator=self.generator,
                stream=self.stream,
                cluster=self.cluster,
                fleet=self.fleet,
                table=self.table,
                cost_meters=self.cost_meters,
                loops=self.loops,
                # Runtime-retargeted bounds (a share schedule or a fleet
                # coordinator) make the static bound check meaningless.
                check_controller_bounds=self.share_schedule is None and not coordinated,
                bus=recorder.bus if recorder is not None else None,
            )
            self.engine.add_component(self.invariant_checker)
        self.chaos_injector: ChaosInjector | None = None
        if chaos:
            self.chaos_injector = ChaosInjector(
                schedule=chaos,
                stream=self.stream,
                cluster=self.cluster,
                fleet=self.fleet,
                table=self.table,
                cloudwatch=self.cloudwatch,
                bus=recorder.bus if recorder is not None else None,
            )
            self.engine.add_component(self.chaos_injector)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _build_loops(self) -> dict[LayerKind, ControlLoop]:
        actuators = {
            LayerKind.INGESTION: lambda: KinesisShardActuator(self.stream),
            LayerKind.ANALYTICS: lambda: StormVMActuator(self.fleet),
            LayerKind.STORAGE: lambda: DynamoDBWriteActuator(self.table),
        }
        loops: dict[LayerKind, ControlLoop] = {}
        for kind, config in self.controls.items():
            namespace, metric = LAYER_SENSE[kind]
            sensor = CloudWatchSensor(
                self.cloudwatch,
                namespace,
                metric,
                window=config.window,
                statistic=config.statistic,
                dimensions=self._dimensions_for(kind),
                # Degrade gracefully on missing datapoints: hold the
                # last reading for up to three monitoring windows.
                hold_last_for=3 * config.window,
            )
            # Retry sits innermost so transient API faults are absorbed
            # before (and invisibly to) the share bound.
            actuator = RetryingActuator(actuators[kind]())
            if kind in self.share_bounds:
                # Sec. 2: controllers act freely *within* the layer's
                # resource share from the share analyzer, never beyond.
                actuator = BoundedActuator(actuator, cap=self.share_bounds[kind])
            if self.recorder is not None:
                actuator.instrument(self.recorder.bus, kind.name.lower())
                sensor.instrument(self.recorder.bus, kind.name.lower())
            loops[kind] = ControlLoop(
                name=kind.name.lower(),
                sensor=sensor,
                controller=config.controller,
                actuator=actuator,
                period=config.period,
                decision_log=self.recorder.decisions if self.recorder else None,
                event_bus=self.recorder.bus if self.recorder else None,
                telemetry=self.telemetry,
            )
        return loops

    def _apply_scheduled_bounds(self, now: int) -> None:
        """Track the share schedule: retarget every bounded actuator to
        the window in force at ``now`` (Sec. 2's arbitrary-time-window
        resource shares)."""
        bounds = self.share_schedule.bounds_at(now)
        for kind, loop in self.loops.items():
            actuator = loop.actuator
            if isinstance(actuator, BoundedActuator) and kind in bounds:
                actuator.cap = float(bounds[kind])

    def _snapshot(self, now: int) -> None:
        """Snapshot-boundary work: collect metrics, sample telemetry."""
        self.collector.collect(now)
        if self.telemetry is not None:
            self._sample_telemetry(now)

    def _sample_telemetry(self, now: int) -> None:
        """Refresh the telemetry gauges from live state.

        Strictly read-only: every source here is a plain attribute or a
        pure query, so sampling can never perturb the simulation — the
        bit-exactness contract is untouched and span/per-tick runs stay
        identical with telemetry on or off.
        """
        telemetry = self.telemetry
        pipeline = self._pipeline
        telemetry.set_gauge("pipeline.producer_backlog", pipeline._producer_backlog_records)
        telemetry.set_gauge("pipeline.write_backlog", pipeline._write_backlog)
        telemetry.set_gauge("pipeline.dropped_records", pipeline.dropped_records)
        telemetry.set_gauge("pipeline.dropped_writes", pipeline.dropped_writes)
        for name, meter in self.cost_meters.items():
            telemetry.set_gauge(f"cost.{name}", meter.total_cost)
        loops = list(self.loops.values())
        if self.read_loop is not None:
            loops.append(self.read_loop)
        for loop in loops:
            actuator = loop.actuator
            if isinstance(actuator, BoundedActuator):
                telemetry.set_gauge(
                    f"actuator.{loop.name}.share_clamps", actuator.clamped_requests
                )
                actuator = actuator.inner
            if isinstance(actuator, RetryingActuator):
                telemetry.set_gauge(
                    f"actuator.{loop.name}.failed_attempts", actuator.failed_attempts
                )
                telemetry.set_gauge(
                    f"actuator.{loop.name}.breaker_openings", actuator.total_openings
                )
                telemetry.set_gauge(
                    f"actuator.{loop.name}.circuit_open",
                    1.0 if now < actuator.circuit_open_until else 0.0,
                )
            telemetry.set_gauge(
                f"sensor.{loop.name}.stale",
                1.0 if getattr(loop.sensor, "last_stale", False) else 0.0,
            )

    def _dimensions_for(self, kind: LayerKind) -> dict[str, str]:
        return self._layer_dims[kind]

    def _build_collector(self) -> MetricCollector:
        collector = MetricCollector(self.cloudwatch, window=self.snapshot_period)
        # Registered explicitly rather than via a loop over opaque tuples,
        # so the dashboard labels read like the demo's consolidated view.
        collector.add_metric(
            "ingestion.records", KINESIS_NS, "IncomingRecords", "Sum",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.shards", KINESIS_NS, "ShardCount", "Average",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.util%", KINESIS_NS, "WriteUtilization", "Average",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.throttled", KINESIS_NS, "WriteProvisionedThroughputExceeded", "Sum",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "ingestion.lag_ms", KINESIS_NS, "MillisBehindLatest", "Maximum",
            self._dimensions_for(LayerKind.INGESTION),
        )
        collector.add_metric(
            "analytics.cpu%", STORM_NS, "CPUUtilization", "Average",
            self._dimensions_for(LayerKind.ANALYTICS),
        )
        collector.add_metric(
            "analytics.vms", STORM_NS, "ProvisionedVMs", "Average",
            self._dimensions_for(LayerKind.ANALYTICS),
        )
        collector.add_metric(
            "analytics.pending", STORM_NS, "PendingTuples", "Average",
            self._dimensions_for(LayerKind.ANALYTICS),
        )
        collector.add_metric(
            "storage.wcu", DDB_NS, "ProvisionedWriteCapacityUnits", "Average",
            self._dimensions_for(LayerKind.STORAGE),
        )
        collector.add_metric(
            "storage.util%", DDB_NS, "WriteUtilization", "Average",
            self._dimensions_for(LayerKind.STORAGE),
        )
        collector.add_metric(
            "storage.throttled", DDB_NS, "WriteThrottleEvents", "Sum",
            self._dimensions_for(LayerKind.STORAGE),
        )
        return collector

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_seconds: int) -> FlowRunResult:
        """Advance the simulation and return the analysed result."""
        started = perf_counter()
        self.engine.run(duration_seconds)
        return self._build_result(perf_counter() - started)

    def _build_result(self, wall_seconds: float = 0.0) -> FlowRunResult:
        """Assemble the run result from current state.

        Split out of :meth:`run` so a region fleet manager can run the
        *shared* engine once and then collect each flow's result.
        """
        return FlowRunResult(
            duration_seconds=self.engine.clock.now,
            flow=self.flow,
            cloudwatch=self.cloudwatch,
            collector=self.collector,
            loops=self.loops,
            cost_meters=self.cost_meters,
            dropped_records=self._pipeline.dropped_records,
            dropped_writes=self._pipeline.dropped_writes,
            sample_period=self.snapshot_period,
            layer_dimensions={kind: self._dimensions_for(kind) for kind in LayerKind},
            read_loop=self.read_loop,
            recorder=self.recorder,
            chaos_events=list(self.chaos_injector.events) if self.chaos_injector else [],
            invariants=(
                self.invariant_checker.report() if self.invariant_checker else None
            ),
            telemetry=self.telemetry,
            wall_seconds=wall_seconds,
            exact=self.exact,
        )
