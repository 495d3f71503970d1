"""The flow elasticity manager: Flower's run loop.

Wires everything together the way Fig. 3 describes: the workload
generator feeds the ingestion layer, the analytics layer pulls from it
and emits aggregates to the storage layer; every service pushes its
measurements to the simulated CloudWatch; per-layer control loops read
their sensor through a monitoring window and command their actuator;
cost meters integrate spend per resource. The run loop does nothing
else: the cross-platform collector's snapshots and the run's telemetry
are read from the finished run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.chaos.injector import ChaosEvent, ChaosInjector
from repro.chaos.invariants import InvariantChecker, InvariantReport
from repro.chaos.schedule import ChaosSchedule
from repro.cloud.cloudwatch import SimCloudWatch, left_fold
from repro.cloud.dynamodb import DynamoDBConfig, SimDynamoDBTable
from repro.cloud.dynamodb import NAMESPACE as DDB_NS
from repro.cloud.ec2 import EC2Config, SimEC2Fleet
from repro.cloud.kinesis import KinesisConfig, SimKinesisStream
from repro.cloud.kinesis import NAMESPACE as KINESIS_NS
from repro.cloud.pricing import CostMeter, PriceBook
from repro.cloud.storm import NAMESPACE as STORM_NS
from repro.cloud.storm import SimStormCluster, StormConfig, TopologyConfig
from repro.control.actuators import (
    DynamoDBActuator,
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
from repro.workload.generators import RatePattern
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
        for name in ("shards", "vms", "write_units", "read_units"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")


#: Fewest ticks in a row that :meth:`_FlowPipeline.run_span` hands to a
#: closed-form (vector, saturated or throttled) stretch. A closed form
#: pays a fixed numpy cost per call and saves per tick: timed on a
#: 2-vCPU host, it costs about 45-50 µs plus 0.6-0.8 µs a tick and a
#: scalar stretch 20-27 µs plus 3.9-4.5 µs a tick, so they break even
#: near 7 ticks. At 16 the 29- and 31-tick spans a capacity event
#: leaves inside a 60 s control period run in closed form.
_CLOSED_FORM_MIN_TICKS = 16

#: Ticks of dashboard reads :meth:`_FlowPipeline._draw_reads` draws at a
#: time: one rate grid and one Poisson array per block.
_READ_BLOCK = 1024


def _run_length(stops: np.ndarray) -> int:
    """Ticks before the first set entry of ``stops``, or all of them."""
    hits = np.flatnonzero(stops)
    return int(hits[0]) if len(hits) else len(stops)


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
        "now", "dt", "count", "records", "payload", "reads",
        "record_cap", "byte_cap", "shards", "stream_read_cap", "vms",
        "analytics_cap", "poll_limit", "drained_limit", "provisioned_vms", "billable_vms",
        "write_units", "write_cap", "read_units", "read_cap",
        "write_bucket_cap", "read_bucket_cap", "max_backlog", "_records", "_read_capped",
        "_capped", "_violations", "_surplus", "_producer",
    )

    def __init__(self, pipeline: "_FlowPipeline", now: int, dt: int, count: int) -> None:
        first_tick = now + dt
        self.now = now
        self.dt = dt
        self.count = count
        self.records, self.payload = pipeline.generator.generate_span(first_tick, count, dt)
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
        # The most records a tick can bring that Storm takes whole.
        self.drained_limit = min(self.stream_read_cap, self.poll_limit, self.analytics_cap)
        self.provisioned_vms = fleet.provisioned_count(first_tick)
        self.billable_vms = fleet.billable_count(first_tick)
        # Provisioned units drive metrics, burst-bucket sizing and cost;
        # the *effective* units (provisioned minus any injected throttle
        # storm) drive what the table actually accepts per tick.
        self.write_units = table.writes.capacity(first_tick)
        self.write_cap = table.writes.effective(first_tick) * dt
        self.read_units = table.reads.capacity(first_tick)
        self.read_cap = table.reads.effective(first_tick) * dt
        self.write_bucket_cap = table.config.burst_seconds * self.write_units
        self.read_bucket_cap = table.config.burst_seconds * self.read_units
        self.max_backlog = pipeline.MAX_BACKLOG
        self._records: np.ndarray | None = None
        self._read_capped: np.ndarray | None = None
        self._capped: np.ndarray | None = None
        self._violations: list[int] | None = None
        self._surplus: np.ndarray | None = None
        self._producer: tuple | None = None

    def closed_form_run(
        self, i: int, buffer: int, pending: int, backlog: int, backlog_bytes: int
    ) -> tuple[int, bool, tuple | None] | None:
        """The closed form that can take over at span index ``i``: the
        plan ``(stop, saturated, producer)`` :meth:`_FlowPipeline._closed_form`
        runs, or ``None`` where none runs :data:`_CLOSED_FORM_MIN_TICKS`
        ticks. The caller guarantees that the write backlog is empty.

        Every closed form is one queue: an inflow, what Kinesis accepts
        each tick, feeds a Storm that runs drained or saturated from
        ``buffer`` records and ``pending`` queued tuples (:meth:`_storm_run`).
        With no producer backlog the inflow is the drawn records, which
        stop at a Kinesis write cap or the read capacity. From a producer
        backlog of ``backlog`` records, at least two record caps, it is
        :meth:`_producer_columns`' ``accepted``, which stops where the
        backlog leaves the two-cap/``max_backlog`` band or the reads the
        read capacity. Its byte split runs last, on a run long enough: a
        Python loop over the ``backlog_bytes`` byte backlog, which also
        stops where the byte cap binds. ``producer`` is then what Kinesis
        accepts over the run, in records and bytes.
        """
        if self.count - i < _CLOSED_FORM_MIN_TICKS:
            return None
        if not (backlog or backlog_bytes):
            run, saturated = self._storm_run(
                i, buffer, pending, lambda: self._capped_mask()[i:],
                lambda: self._drained_run(i), self._drawn_surplus,
                lambda: self._uncapped_to_end(i, self.record_cap),
            )
            return (i + run, saturated, None) if run else None
        two_caps = 2 * self.record_cap
        if self.record_cap <= 0 or backlog < two_caps:
            return None
        accepted, fraction, rise, surplus = self._producer_columns()
        base = backlog - int(rise[i])
        stops = (
            (rise[i:-1] < two_caps - base)
            | (rise[i + 1 :] > self.max_backlog - base)
            | self._read_capped_mask()[i:]
        )
        run, saturated = self._storm_run(
            i, buffer, pending, lambda: stops,
            lambda: _run_length(stops | (accepted[i:] > self.drained_limit)), lambda: surplus,
            lambda: not stops.any(),
        )
        if not run:
            return None
        # The byte split, tick by tick: the retry takes its share of the
        # byte backlog, and the byte cap must not bind.
        byte_cap = self.byte_cap
        held = backlog_bytes
        accepted_bytes: list[int] = []
        append = accepted_bytes.append
        for opening, share, payload in zip(
            (rise[i : i + run] + base).tolist(),
            fraction[i : i + run].tolist(),
            self.payload[i : i + run],
        ):
            offered = payload + int(held * two_caps / opening)
            if offered and byte_cap / offered < share:
                break
            took = int(offered * share)
            append(took)
            held += payload - took
        run = len(accepted_bytes)
        if run < _CLOSED_FORM_MIN_TICKS:
            return None
        return i + run, saturated, (accepted[i : i + run], accepted_bytes)

    def _storm_run(
        self, i: int, buffer: int, pending: int, stops: Callable[[], np.ndarray],
        drained: Callable[[], int], surplus: Callable[[], np.ndarray],
        unstopped: Callable[[], bool],
    ) -> tuple[int, bool]:
        """``(ticks, saturated)``: how long Storm runs one closed-form
        regime from span index ``i`` on an inflow whose stops from ``i``
        are ``stops()``; ``(0, False)`` where neither regime lasts
        :data:`_CLOSED_FORM_MIN_TICKS` ticks. Drained is tried first, from
        an empty buffer and queue: ``drained()`` is how many ticks the
        inflow runs before a stop or a tick above ``drained_limit``. Then
        saturated, over ``surplus()``, the inflow's prefix sum less
        ``analytics_cap``: where its tail stays at or above the
        :meth:`_saturated_floor` and ``unstopped()`` says the inflow has
        no stop from ``i``, the run reaches the span's end without a
        mask (:meth:`_saturates_to_end`). Each callable is called only
        when its regime is tried.
        """
        if not (buffer or pending):
            run = drained()
            if run >= _CLOSED_FORM_MIN_TICKS:
                return run, False
        column = surplus()
        floor = self._saturated_floor(i, buffer, pending, column)
        if floor is None:
            return 0, False
        if self._saturates_to_end(i, floor, column, unstopped):
            return self.count - i, True
        run = _run_length(stops() | (column[i:] < floor))
        return (run, True) if run >= _CLOSED_FORM_MIN_TICKS else (0, False)

    def _saturates_to_end(
        self, i: int, floor: int, surplus: np.ndarray, unstopped: Callable[[], bool]
    ) -> bool:
        """Whether a saturated run from span index ``i`` reaches the
        span's end: no tail entry of ``surplus`` falls below ``floor``
        and the inflow has no stop."""
        return bool(surplus[i:].min() >= floor) and unstopped()

    def _record_column(self) -> np.ndarray:
        """The drawn records as int64, converted once per span."""
        records = self._records
        if records is None:
            records = self._records = np.asarray(self.records, dtype=np.int64)
        return records

    def _read_capped_mask(self) -> np.ndarray:
        """The ticks whose dashboard reads exceed the read capacity: no
        closed form runs them. Built once per span, on first use."""
        read_capped = self._read_capped
        if read_capped is None:
            if self.reads is None:
                read_capped = np.zeros(self.count, dtype=bool)
            else:
                read_capped = np.asarray(self.reads, dtype=np.int64) > self.read_cap
            self._read_capped = read_capped
        return read_capped

    def _capped_mask(self) -> np.ndarray:
        """The ticks whose draws exceed a Kinesis write cap or whose
        dashboard reads exceed the read capacity: the drawn inflow's
        stops. Built once per span, on first use."""
        capped = self._capped
        if capped is None:
            capped = self._capped = (
                (self._record_column() > self.record_cap)
                | (np.asarray(self.payload, dtype=np.int64) > self.byte_cap)
                | self._read_capped_mask()
            )
        return capped

    def _drained_run(self, i: int) -> int:
        """How many ticks from span index ``i`` the drawn records run
        with Storm drained: up to the first tick that is a stop of the
        drawn inflow or brings more than ``drained_limit``. A bisect into
        those ticks, found once per span, on first use; until then a run
        that reaches the span's end (:meth:`_drains_to_end`) builds no
        mask."""
        violations = self._violations
        if violations is None:
            if self._drains_to_end(i):
                return self.count - i
            violations = self._violations = np.flatnonzero(
                self._capped_mask() | (self._record_column() > self.drained_limit)
            ).tolist()
        j = bisect_left(violations, i)
        return (violations[j] if j < len(violations) else self.count) - i

    def _drains_to_end(self, i: int) -> bool:
        """Whether no tick from span index ``i`` on is a stop of the drawn
        inflow or brings more than ``drained_limit``."""
        return self._uncapped_to_end(i, min(self.drained_limit, self.record_cap))

    def _uncapped_to_end(self, i: int, record_limit: int) -> bool:
        """Whether the maxima of the span's records, payload and reads
        from index ``i`` on are within ``record_limit``, the byte cap and
        the read capacity: the drawn inflow has no stop there when
        ``record_limit`` is the record cap."""
        return (
            max(self.records[i:]) <= record_limit
            and max(self.payload[i:]) <= self.byte_cap
            and (self.reads is None or max(self.reads[i:]) <= self.read_cap)
        )

    def _drawn_surplus(self) -> np.ndarray:
        """Storm's saturated surplus over the drawn records,
        ``surplus[k] = sum(records[..k]) - (k + 1) * analytics_cap`` in
        int64. Built once per span, on first use."""
        surplus = self._surplus
        if surplus is None:
            surplus = self._surplus = np.cumsum(self._record_column() - self.analytics_cap)
        return surplus

    def _saturated_floor(
        self, i: int, buffer: int, pending: int, surplus: np.ndarray
    ) -> int | None:
        """The least ``surplus`` entry from span index ``i`` on that
        keeps a saturated Storm's poll whole, ``surplus`` being the prefix
        sum of what Kinesis accepts less ``analytics_cap``: Storm
        processes its full capacity each tick and its poll tops the queue
        up to ``poll_limit``, so the buffer after tick ``k`` is ``buffer +
        sum(accepted[i..k]) - (poll_limit - pending) - (k - i) * cap``,
        and the run exits at the first tick whose entry is below the
        floor. ``None`` where saturation cannot start: it needs the
        stream's read cap to cover every poll, and ``pending <=
        poll_limit``.
        """
        cap = self.analytics_cap
        first = self.poll_limit - pending
        if cap <= 0 or first < 0 or self.stream_read_cap < max(first, cap):
            return None
        return first - cap - buffer + (int(surplus[i - 1]) if i else 0)

    def _producer_columns(self) -> tuple:
        """The span's columns under a full retry of ``2 * record_cap``.

        ``accepted`` is what Kinesis takes of ``offered = records + 2 *
        record_cap``, ``int(offered * (record_cap / offered))``, exactly
        the scalar loop's float arithmetic: it reads ``record_cap - 1``
        on some offers, so ``record_cap`` alone would be wrong. Also the
        per-tick accept fraction, ``rise`` (``rise[k]`` is the sum of
        ``records - accepted`` over the ticks before ``k``, so
        ``count + 1`` entries), and Storm's saturated surplus over
        ``accepted``. Built once per span, on first use.
        """
        producer = self._producer
        if producer is None:
            records = self._record_column()
            offered = records + 2 * self.record_cap
            fraction = self.record_cap / offered
            accepted = (offered * fraction).astype(np.int64)
            rise = np.zeros(self.count + 1, dtype=np.int64)
            np.cumsum(records - accepted, out=rise[1:])
            surplus = np.cumsum(accepted - self.analytics_cap)
            producer = self._producer = (accepted, fraction, rise, surplus)
        return producer


class _FlowPipeline:
    """The per-tick data path: generator → Kinesis → Storm → DynamoDB."""

    #: Bound on producer/write retry backlogs; beyond it data is dropped
    #: (a real producer's buffer is finite too) and counted.
    MAX_BACKLOG = 5_000_000

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
        self._read_rng = read_rng
        # The drawn block of dashboard read units: ticks _read_start,
        # _read_start + _read_step, ... (see _draw_reads).
        self._reads: list[int] = []
        self._read_start = 0
        self._read_step: int | None = None
        self._producer_backlog_records = 0
        self._producer_backlog_bytes = 0
        self._write_backlog = 0
        self.dropped_records = 0
        self.dropped_bytes = 0
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
            kept_bytes = int(backlog_bytes * self.MAX_BACKLOG / backlog_records)
            self.dropped_bytes += backlog_bytes - kept_bytes
            backlog_bytes = kept_bytes
            backlog_records = self.MAX_BACKLOG
        self._producer_backlog_records = backlog_records
        self._producer_backlog_bytes = backlog_bytes

        # 2. Analytics pulls, processes, emits windowed aggregates.
        writes = self.cluster.pull_and_process(self.stream, batch.distinct_keys, clock)

        # 3. Storage absorbs the writes; throttled writes are retried,
        #    paced the same way as producer retries. Pacing follows the
        #    *effective* capacity so a throttle storm slows retries too.
        table_writes = self.table.writes
        write_capacity = table_writes.effective(now) * clock.tick_seconds
        retry_writes = min(self._write_backlog, 2 * write_capacity)
        write_result = table_writes.consume(writes + retry_writes, clock)
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
            # Served from the same drawn block as run_span's reads.
            read_units = self._draw_reads(now, 1, clock.tick_seconds)[0]
            self.table.reads.consume(read_units, clock)

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
        self.cost_meters["storage"].accrue(table_writes.capacity(now), dt)
        self.cost_meters["storage_reads"].accrue(self.table.reads.capacity(now), dt)

    # ------------------------------------------------------------------
    # Span execution (see DESIGN.md "Span execution contract")
    # ------------------------------------------------------------------
    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        """Latest span end the data path can accept, at most ``limit``.

        :class:`_Span` hoists every capacity change ripe at the span's
        first tick: a reshard, a table update, a rebalance ending or a
        boot completing there applies before the span's columns are
        read. The first change after that tick bounds the span, which
        ends on the tick before the first tick the change affects: the
        next ``next_capacity_event`` of the stream, the table, the
        cluster and the fleet. Aggregation-window flushes do *not*
        bound a span (:meth:`run_span` draws its CPU-noise normals in
        flush-bounded segments, so a flush's Poisson draw lands at
        exactly the bitstream position the per-tick loop gives it).

        One tick runs alone: where the cluster has a topology and the
        running VM count it will see at the first tick differs from the
        one it last saw (a boot, a scale-down or a crash), that tick
        starts a rebalance whose end is set only when the tick runs.
        """
        first_tick = now + tick_seconds
        cluster = self.cluster
        if cluster.rebalances_at(first_tick):
            return first_tick
        horizon = limit
        for event in (
            self.stream.next_capacity_event(first_tick),
            self.table.next_capacity_event(first_tick),
            cluster.next_capacity_event(first_tick),
            cluster.fleet.next_capacity_event(first_tick),
        ):
            if event is not None:
                # The tick before the first tick at or after the event.
                bound = now + tick_seconds * ((event - now - 1) // tick_seconds)
                if bound < horizon:
                    horizon = bound
        return horizon

    def run_span(self, clock: SimClock, span_end: int) -> None:
        """Execute the ticks ``(clock.now, span_end]`` as one batch.

        Bit-identical to calling :meth:`on_tick` once per tick (the span
        execution contract, DESIGN.md). A :class:`_Span` draws the
        workload and dashboard-read columns once and hoists the capacity
        coefficients once — :meth:`span_horizon` guarantees they are
        constant across the span. Execution then alternates stretches
        over those columns. Where the write backlog is empty and
        :meth:`_Span.closed_form_run` finds a plan, :meth:`_closed_form`
        runs it; the bit-exact :meth:`_scalar_stretch` recurrence runs
        everywhere else, and hands back the plan it stopped for, so no
        question is asked twice. The metric columns land as one frame
        append per service, and the costs accrue once, at the end of the
        span.
        """
        dt = clock.tick_seconds
        count = (span_end - clock.now) // dt
        span = _Span(self, clock.now, dt, count)
        stream = self.stream
        cluster = self.cluster
        accepted_before = stream.total_accepted_records
        parts = []
        plan = None
        i = 0
        while i < count:
            if plan is None and not self._write_backlog:
                plan = span.closed_form_run(
                    i, stream._buffer_records, cluster._pending_records,
                    self._producer_backlog_records, self._producer_backlog_bytes,
                )
            if plan is None:
                i, plan, columns = self._scalar_stretch(span, i)
            else:
                i, columns = self._closed_form(span, i, *plan)
                plan = None
            parts.append(columns)
        if len(parts) == 1:
            columns = parts[0]
        else:
            columns = [np.concatenate(column) for column in zip(*parts)]
        (
            k_accepted, k_accepted_bytes, k_throttled, k_read, k_util, k_backlog,
            k_lag, s_cpu, s_processed, s_pending, s_writes, d_consumed, d_throttled,
            d_util, d_burst, d_read_consumed, d_read_throttled, d_read_util,
        ) = columns

        # Columnar metric emission (same values, same append order). The
        # span's ticks are one arithmetic run, which the store keeps as such.
        cloudwatch = self.cloudwatch
        times = range(clock.now + dt, span_end + dt, dt)
        stream.emit_metrics_span(
            cloudwatch, times, k_accepted, k_accepted_bytes, k_throttled, k_read,
            k_util, k_backlog, k_lag, span.shards,
        )
        cluster.emit_metrics_span(
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
        """Dashboard read units for ``count`` ticks from ``first_tick``.

        Served from a block drawn :data:`_READ_BLOCK` ticks at a time,
        one ``poisson(max(rate * dt, 0))`` over the block's rate grid;
        :meth:`run_span` and :meth:`on_tick` both read it. The reads
        have an RNG stream of their own and each tick is read once, in
        time order, so the blocks consume it exactly as one scalar draw
        per tick would; a zero-rate tick draws nothing in either form.
        """
        if self.read_workload is None:
            return None
        if self._read_step is None:
            self._read_step = dt
        elif dt != self._read_step:
            raise ConfigurationError(
                "dashboard reads cannot change tick length mid-stream "
                f"({self._read_step}s -> {dt}s)"
            )
        reads = self._reads
        index = (first_tick - self._read_start) // dt
        if index + count > len(reads):
            # Keep the unread tail; draw whole blocks after it.
            tail = reads[index:]
            start = first_tick + len(tail) * dt
            ticks = -(-(count - len(tail)) // _READ_BLOCK) * _READ_BLOCK
            expected = self.read_workload.values(start, start + ticks * dt, dt) * dt
            drawn = self._read_rng.poisson(np.maximum(expected, 0.0)).tolist()
            reads = self._reads = tail + drawn
            self._read_start = first_tick
            index = 0
        return reads[index : index + count]

    def _scalar_stretch(self, span: "_Span", start: int) -> tuple[int, tuple | None, tuple]:
        """The bit-exact per-tick recurrence, from span index ``start``.

        Runs to the end of the span, or stops at a window boundary where
        the write backlog is empty ahead of a closed-form run
        (:meth:`_Span.closed_form_run`). It stops only where its
        CPU-noise buffer is used up, so the closed-form stretch that
        follows draws from the right bitstream position. Returns the
        stop index, the closed-form plan found there (``None`` at the
        span's end) and the stretch's metric columns.
        """
        dt = span.dt
        count = span.count
        records_col = span.records
        payload_col = span.payload
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
        closed_form_run = span.closed_form_run
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
        dropped_bytes = self.dropped_bytes
        buffer_records = stream._buffer_records
        smoothed_rate = stream._smoothed_rate
        pending = cluster._pending_records
        window_records = cluster._window_records
        window_elapsed = cluster._window_elapsed
        window_seconds = cluster.config.window_seconds
        distinct_estimator = cluster._distinct_estimator
        storm_poisson = cluster._rng.poisson
        idle = cluster.config.cpu_idle_percent
        burst = table.writes.bucket
        read_burst = table.reads.bucket
        write_backlog = self._write_backlog
        dropped_writes = self.dropped_writes
        alpha = min(1.0, dt / 60.0)
        two_record_cap = 2 * record_cap
        two_write_cap = 2 * write_cap

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
        stop = count
        plan = None
        for i in range(start, count):
            if noise_idx == noise_end:
                # A window boundary: the one place a closed-form
                # stretch may take over, since no drawn normal is left
                # unused.
                if i > start and not write_backlog:
                    plan = closed_form_run(i, buffer_records, pending, backlog_records, backlog_bytes)
                    if plan:
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
                kept_bytes = int(backlog_bytes * max_backlog / backlog_records)
                dropped_bytes += backlog_bytes - kept_bytes
                backlog_bytes = kept_bytes
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
            window_records += processed
            window_elapsed += dt
            writes = 0
            if window_elapsed >= window_seconds:
                expected = distinct_estimator(window_records)
                writes = int(storm_poisson(expected)) if expected > 0 else 0
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
        self.dropped_bytes = dropped_bytes
        self._write_backlog = write_backlog
        self.dropped_writes = dropped_writes
        stream._buffer_records = buffer_records
        stream._smoothed_rate = smoothed_rate
        stream.total_accepted_records += sum(k_accepted)
        stream.total_accepted_bytes += sum(k_accepted_bytes)
        stream.total_read_records += sum(k_read)
        cluster._pending_records = pending
        cluster.total_processed += sum(s_processed)
        cluster.total_writes_emitted += sum(s_writes)
        table.writes.total_accepted += sum(d_consumed)
        if has_reads:
            table.reads.total_accepted += sum(d_read_consumed)
        cluster._window_records = window_records
        cluster._window_elapsed = window_elapsed
        cluster._tick_cpu = cpu
        cluster._tick_processed = processed
        cluster._tick_writes_emitted = writes
        table.writes.bucket = burst
        table.reads.bucket = read_burst
        return stop, plan, (
            k_accepted, k_accepted_bytes, k_throttled, k_read, k_util, k_backlog,
            k_lag, s_cpu, s_processed, s_pending, s_writes, d_consumed, d_throttled,
            d_util, d_burst, d_read_consumed, d_read_throttled, d_read_util,
        )

    def _closed_form(
        self, span: "_Span", start: int, stop: int, saturated: bool,
        producer: tuple[np.ndarray, list[int]] | None,
    ) -> tuple[int, tuple]:
        """A closed-form stretch over the span indices ``start`` ..
        ``stop - 1``: the plan :meth:`_Span.closed_form_run` found from
        ``start``, which guarantees that the write backlog is empty there
        and that no tick of the run breaks its regime.

        Kinesis accepts every drawn record and byte, or, given
        ``producer``, its accepted records and bytes: each tick then
        re-offers ``2 * record_cap`` of producer backlog with its draws,
        and the producer backlogs take what Kinesis throttles. Storm
        runs on what Kinesis accepted. Drained, the recurrence
        degenerates: handed = processed = accepted, and nothing buffers
        or queues. With ``saturated``, Storm runs at capacity: the poll
        tops its queue back up to ``poll_limit``, so it hands over
        ``poll_limit - pending`` on the first tick and ``analytics_cap``
        after, Storm processes ``analytics_cap`` and leaves ``poll_limit
        - analytics_cap`` pending, CPU is ``clip(100 + noise)``, and the
        stream buffer is ``B0 + cumsum(accepted - handed)``, Lindley's
        queue recursion while the buffer stays non-empty. Dashboard reads
        never dip into the burst bucket: the run test holds them within
        the read capacity. Only storage can still go live, when a window
        flush's writes overflow the write burst bucket: the stretch then
        ends on that flush tick and a scalar stretch retries the write
        backlog. Returns the stop index and the stretch's metric columns.
        """
        dt = span.dt
        # What Kinesis accepts, tick by tick, from span index start.
        flow = span.records[start:stop] if producer is None else producer[0].tolist()
        cap = span.analytics_cap
        write_cap = span.write_cap
        write_bucket_cap = span.write_bucket_cap
        stream = self.stream
        cluster = self.cluster
        table = self.table

        # Window walk. Flush boundaries cut the stretch into the
        # segments the scalar loop draws its CPU-noise normals in, each
        # flush's Poisson interleaved at the same bitstream position.
        # Storm processes what Kinesis accepted each tick, or its full
        # capacity when saturated. A flush's writes land on the table at
        # once: up to the effective rate, the excess from the burst
        # bucket, which refills by write_cap per tick in between.
        # min(cap, b + k * write_cap) is that per-tick refill exactly,
        # because the bucket holds integer-valued floats below 2**53.
        window_seconds = cluster.config.window_seconds
        distinct_estimator = cluster._distinct_estimator
        storm_poisson = cluster._rng.poisson
        noise_std = cluster.config.cpu_noise_std
        storm_normal = cluster._rng.normal
        wr = cluster._window_records
        we = cluster._window_elapsed
        burst_before = burst = table.writes.bucket
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
            wr += trunc * cap if saturated else sum(flow[i - start : i - start + trunc])
            we += trunc * dt
            i += trunc
            if trunc < seg:
                break
            expected = distinct_estimator(wr)
            writes = int(storm_poisson(expected)) if expected > 0 else 0
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
        flow = flow[:n]
        records = np.asarray(span.records[start:stop], dtype=np.int64)
        payload = np.asarray(span.payload[start:stop], dtype=np.int64)
        zeros_i = np.zeros(n, dtype=np.int64)
        zeros_f = np.zeros(n)
        if producer is None:
            accepted = records
            accepted_bytes = payload
            k_throttled = zeros_i
        else:
            accepted = producer[0][:n]
            accepted_bytes = np.asarray(producer[1][:n], dtype=np.int64)
            k_throttled = records + 2 * span.record_cap - accepted

        # The lag estimate's smoothed arrival rate, folded tick by tick
        # as the scalar loop folds it.
        smoothed_rate = stream._smoothed_rate
        alpha = min(1.0, dt / 60.0)
        rates = []
        for r in flow:
            smoothed_rate += alpha * (r / dt - smoothed_rate)
            rates.append(smoothed_rate)

        # Kinesis → Storm: what the poll hands over, what Storm
        # processes, and what stays buffered and pending.
        idle = cluster.config.cpu_idle_percent
        if saturated:
            pending = span.poll_limit - cap
            handed = np.full(n, cap, dtype=np.int64)
            handed[0] = span.poll_limit - cluster._pending_records
            buffer = stream._buffer_records + np.cumsum(accepted - handed)
            k_lag = (1000.0 * buffer) / np.maximum(rates, 1e-9)
            processed = np.full(n, cap, dtype=np.int64)
            s_pending = np.full(n, pending, dtype=np.int64)
            # processed / cap is exactly 1.0; a non-empty queue pins 100.
            s_cpu = np.full(n, 100.0 if pending > 0 else idle + (100.0 - idle))
        else:
            handed = processed = accepted
            buffer = s_pending = zeros_i
            k_lag = zeros_f
            if span.vms <= 0:
                s_cpu = zeros_f
            elif cap > 0:
                s_cpu = idle + (100.0 - idle) * (accepted / cap)
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

        k_util = (100.0 * accepted) / span.record_cap if span.record_cap else zeros_f

        # Dashboard reads never exceed the read capacity here, so every
        # tick refills the read bucket by read_cap - reads >= 0, and the
        # capped per-tick refills add up to one capped sum.
        read_burst = table.reads.bucket
        d_read_consumed = zeros_i
        d_read_util = zeros_f
        if span.reads is not None:
            read_cap = span.read_cap
            d_read_consumed = np.asarray(span.reads[start:stop], dtype=np.int64)
            read_total = int(d_read_consumed.sum())
            read_burst = min(span.read_bucket_cap, read_burst + (n * read_cap - read_total))
            table.reads.total_accepted += read_total
            if read_cap:
                d_read_util = (100.0 * d_read_consumed) / read_cap

        # Write service state back (the scalar stretch's, in closed form).
        span_accepted = sum(flow)
        span_accepted_bytes = int(accepted_bytes.sum())
        if producer is not None:
            self._producer_backlog_records += int(records.sum()) - span_accepted
            self._producer_backlog_bytes += int(payload.sum()) - span_accepted_bytes
        if saturated:
            stream._buffer_records = int(buffer[n - 1])
            stream.total_read_records += int(handed.sum())
            cluster._pending_records = pending
            cluster.total_processed += n * cap
            cluster._tick_processed = cap
        else:
            stream.total_read_records += span_accepted
            cluster.total_processed += span_accepted
            cluster._tick_processed = flow[n - 1]
        self._write_backlog = min(excess, self.MAX_BACKLOG)
        self.dropped_writes += excess - self._write_backlog
        stream._smoothed_rate = smoothed_rate
        stream.total_accepted_records += span_accepted
        stream.total_accepted_bytes += span_accepted_bytes
        cluster.total_writes_emitted += sum(flush_writes)
        table.writes.total_accepted += sum(flush_accepted)
        cluster._window_records = wr
        cluster._window_elapsed = we
        cluster._tick_cpu = float(s_cpu[n - 1])
        cluster._tick_writes_emitted = int(s_writes[n - 1])
        table.writes.bucket = float(d_burst[n - 1])
        table.reads.bucket = read_burst
        return stop, (
            accepted, accepted_bytes, k_throttled, handed, k_util, buffer, k_lag,
            s_cpu, processed, s_pending, s_writes, d_consumed, d_throttled, d_util, d_burst,
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
    #: Counters, gauges and histograms read from the finished run.
    telemetry: Telemetry = field(default_factory=Telemetry)
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
        return left_fold(self.cost_by_layer.values())

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


def _scheduled_bound(schedule, kind: LayerKind, now: int) -> int:
    """``kind``'s bound in the share-schedule window in force at ``now``
    (Sec. 2's arbitrary-time-window resource shares)."""
    return schedule.bounds_at(now)[kind]


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
            # The schedule's first window seeds the bounds; each bounded
            # actuator then reads the window in force at every step.
            self.share_bounds = dict(share_schedule.bounds_at(0))
        self.price_book = price_book or PriceBook()
        self.seed = seed
        self.snapshot_period = snapshot_period
        #: The finished run's telemetry, rebuilt with each run result.
        self.telemetry = Telemetry()

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
            read_actuator = RetryingActuator(DynamoDBActuator(self.table.reads))
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
            )
            self.engine.every(
                self.read_loop.period, self.read_loop.step, name=f"{prefix}control.reads"
            )

        self.loops = self._build_loops()
        for kind, loop in self.loops.items():
            self.engine.every(
                loop.period, loop.step, name=f"{prefix}control.{kind.name.lower()}"
            )
        # The collector's snapshot grid must land on ticks. Checked after
        # the engine has checked the loops' periods, so theirs fail first.
        tick = self.engine.clock.tick_seconds
        if snapshot_period <= 0 or snapshot_period % tick:
            raise ConfigurationError(
                f"snapshot_period must be a positive multiple of the tick "
                f"length {tick}s, got {snapshot_period}"
            )

        self.collector = self._build_collector()

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
                # A share schedule's caps are audited at each record's
                # time; a fleet coordinator retargets caps at run time,
                # so its flows' bounds go unaudited.
                check_controller_bounds=not coordinated,
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
            LayerKind.STORAGE: lambda: DynamoDBActuator(self.table.writes),
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
                schedule = None
                if self.share_schedule is not None:
                    schedule = partial(_scheduled_bound, self.share_schedule, kind)
                actuator = BoundedActuator(actuator, cap=self.share_bounds[kind], schedule=schedule)
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
            )
        return loops

    def _run_telemetry(self, now: int, coordination: Sequence = ()) -> Telemetry:
        """The run's telemetry, read from what the run kept.

        Counters and step-size histograms come from each loop's records
        and skip count, gauges from the pipeline, cost meters, actuators
        and sensors at ``now``, and the fleet gauges from the region
        coordinator's ``coordination`` records, if any.
        """
        telemetry = Telemetry()
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
            name = loop.name
            records = loop.records
            for counter, count in (
                ("skipped", loop.skipped),
                ("decisions", len(records)),
                ("actions", sum(r.acted for r in records)),
                ("clamps", sum(r.capacity_applied != r.capacity_requested for r in records)),
                ("stale_reads", sum(r.stale for r in records)),
            ):
                if count:
                    telemetry.inc(f"control.{name}.{counter}", count)
            for r in records:
                if r.acted:
                    telemetry.observe(
                        f"control.{name}.step_size", abs(r.capacity_applied - r.capacity_before)
                    )
            actuator = loop.actuator
            if isinstance(actuator, BoundedActuator):
                telemetry.set_gauge(f"actuator.{name}.share_clamps", actuator.clamped_requests)
                actuator = actuator.inner
            if isinstance(actuator, RetryingActuator):
                telemetry.set_gauge(f"actuator.{name}.failed_attempts", actuator.failed_attempts)
                telemetry.set_gauge(f"actuator.{name}.breaker_openings", actuator.total_openings)
                telemetry.set_gauge(
                    f"actuator.{name}.circuit_open",
                    1.0 if now < actuator.circuit_open_until else 0.0,
                )
            telemetry.set_gauge(
                f"sensor.{name}.stale", 1.0 if getattr(loop.sensor, "last_stale", False) else 0.0
            )
        if coordination:
            telemetry.inc("fleet.coordinations", len(coordination))
            for kind, cap in coordination[-1].grants.get(self.flow_id, {}).items():
                telemetry.set_gauge(f"fleet.bound.{kind.name.lower()}", float(cap))
        return telemetry

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
        """Advance the simulation and return the analysed result.

        A fleet member shares its region's engine, so it runs only
        through :meth:`RegionFleetManager.run`, which runs every flow.
        """
        if not self._owns_engine:
            raise ConfigurationError(
                f"flow {self.flow_id!r} shares its region's engine: "
                "run every flow with RegionFleetManager.run"
            )
        started = perf_counter()
        self._reserve_run(duration_seconds)
        self.engine.run(duration_seconds)
        return self._build_result(perf_counter() - started)

    def _reserve_run(self, duration_seconds: int) -> None:
        """Size the metric store for a run of ``duration_seconds``.

        Every emitter writes one datapoint a tick, so each frame needs
        the run's tick count; an invalid duration raises the engine's
        :class:`SimulationError` before anything is reserved.
        """
        self.cloudwatch.reserve(self.engine.tick_count(duration_seconds))

    def _build_result(self, wall_seconds: float = 0.0, coordination: Sequence = ()) -> FlowRunResult:
        """Assemble the run result from current state.

        Split out of :meth:`run` so a region fleet manager can run the
        *shared* engine once and then collect each flow's result, with
        its coordinator's records as ``coordination``.
        """
        now = self.engine.clock.now
        self.collector.read_until(now)
        self.telemetry = self._run_telemetry(now, coordination)
        return FlowRunResult(
            duration_seconds=now,
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
