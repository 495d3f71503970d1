"""Always-on run-time invariant checking for managed flows.

The simulator's whole value is that its numbers can be trusted; the
:class:`InvariantChecker` makes that a run-time property instead of a
test-suite hope. It registers as an engine component between the
pipeline and the chaos injector and, at every tick (per-tick mode) or
every span boundary (span mode), audits:

* **Conservation** — no record is created or destroyed between layers:
  generated = ingested + producer backlog + dropped, in records and in
  bytes; ingested = read + stream buffer; read = processed + pending
  tuples; emitted writes = stored + write backlog + dropped writes.
* **Capacity bounds** — every provisioned capacity (and in-flight
  target) sits inside its service's configured limits.
* **Cost additivity** — each meter's accumulated unit-seconds equal
  the checker's own independent integration of capacity x time, and
  the ingestion meter's usage volume equals the stream's accepted
  count (billing cannot drift from what the services actually did).
* **Controller-bound respect** — capacities applied by a bounded
  (resource-share) control loop never exceed its cap.

Checks are read-only: private counters are read directly so that a
check never applies pending capacity targets or publishes service
events, keeping span/tick equivalence intact. Violations don't abort
the run (unless ``strict``); they are counted, sampled, published as
``invariant.violation`` events, and surfaced on the run result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.bounded import BoundedActuator
from repro.core.errors import SimulationError
from repro.simulation.clock import SimClock

#: Keep at most this many violation samples (counts are unbounded).
MAX_SAMPLES = 50
#: Publish at most this many ``invariant.violation`` events per invariant.
MAX_EVENTS_PER_INVARIANT = 10


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: int
    invariant: str
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    """Summary surfaced on :class:`~repro.core.manager.FlowRunResult`."""

    checks: int
    counts: dict[str, int]
    samples: tuple[Violation, ...]

    @property
    def total_violations(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.counts

    def describe(self) -> str:
        lines = [f"invariant checks: {self.checks}, violations: {self.total_violations}"]
        for name, count in sorted(self.counts.items()):
            lines.append(f"  {name}: {count}")
        return "\n".join(lines)


class InvariantChecker:
    """Engine component auditing a managed flow's cross-layer state."""

    def __init__(
        self,
        *,
        pipeline,
        generator,
        stream,
        cluster,
        fleet,
        table,
        cost_meters,
        loops=None,
        check_controller_bounds: bool = True,
        bus=None,
        strict: bool = False,
    ) -> None:
        self._pipeline = pipeline
        self._generator = generator
        self._stream = stream
        self._cluster = cluster
        self._fleet = fleet
        self._table = table
        self._meters = cost_meters
        self._loops = dict(loops or {})
        self._check_controller_bounds = check_controller_bounds
        self._bus = bus
        self._strict = strict
        self.checks = 0
        self.counts: dict[str, int] = {}
        self.samples: list[Violation] = []
        self._published: dict[str, int] = {}
        # Independent cost integration (exact: integer-valued floats).
        self._last_time = 0
        self._expected_unit_seconds = {name: 0.0 for name in cost_meters}
        self._record_index = {name: 0 for name in self._loops}

    # ------------------------------------------------------------------
    # Engine component protocol (tick + span)
    # ------------------------------------------------------------------
    def on_tick(self, clock: SimClock) -> None:
        self._check(clock.now)

    def span_horizon(self, now: int, limit: int, tick_seconds: int) -> int:
        return limit

    def run_span(self, clock: SimClock, span_end: int) -> None:
        self._check(span_end)

    def audit(self, now: int) -> None:
        """Run the checks at an executor-driven boundary.

        Fleet span execution absorbs per-flow capacity events from the
        *global* span, so the engine does not land a component boundary
        on every capacity change. The fleet executor instead
        calls this at each flow's own sub-span boundaries — exactly the
        points where that flow's capacities change — which preserves
        the piecewise-constant assumption the cost integration below
        relies on.
        """
        self._check(now)

    # ------------------------------------------------------------------
    # The checks
    # ------------------------------------------------------------------
    def _check(self, now: int) -> None:
        self.checks += 1
        pipeline = self._pipeline
        stream = self._stream
        cluster = self._cluster
        table = self._table

        # Conservation: every record is in exactly one place.
        generated = self._generator.total_records
        ingested = stream.total_accepted_records
        balance = ingested + pipeline._producer_backlog_records + pipeline.dropped_records
        if generated != balance:
            self._violate(
                now, "conservation.ingestion",
                f"generated={generated} != accepted+backlog+dropped={balance}",
            )
        generated = self._generator.total_bytes
        balance = (
            stream.total_accepted_bytes + pipeline._producer_backlog_bytes + pipeline.dropped_bytes
        )
        if generated != balance:
            self._violate(
                now, "conservation.ingestion_bytes",
                f"generated bytes={generated} != accepted+backlog+dropped={balance}",
            )
        read = stream.total_read_records
        if ingested != read + stream._buffer_records:
            self._violate(
                now, "conservation.stream",
                f"accepted={ingested} != read+buffered={read + stream._buffer_records}",
            )
        processed = cluster.total_processed
        if read != processed + cluster._pending_records:
            self._violate(
                now, "conservation.analytics",
                f"read={read} != processed+pending={processed + cluster._pending_records}",
            )
        emitted = cluster.total_writes_emitted
        stored = table.writes.total_accepted + pipeline._write_backlog + pipeline.dropped_writes
        if emitted != stored:
            self._violate(
                now, "conservation.storage",
                f"emitted={emitted} != stored+backlog+dropped={stored}",
            )

        # Capacity bounds (private reads: never applies pending targets).
        self._check_capacity_bounds(now)

        # Cost additivity: re-integrate capacity x time independently.
        interval = now - self._last_time
        self._last_time = now
        self._integrate_and_compare(now, interval)

        # Controller-bound respect for resource-share (bounded) loops.
        if self._check_controller_bounds:
            self._check_bounds(now)

    def _check_capacity_bounds(self, now: int) -> None:
        stream, table, fleet = self._stream, self._table, self._fleet
        cfg = stream.config
        for label, value in (("shards", stream._shards), ("reshard_target", stream._reshard_target)):
            if value is not None and not cfg.min_shards <= value <= cfg.max_shards:
                self._violate(
                    now, "bounds.ingestion",
                    f"{label}={value} outside [{cfg.min_shards}, {cfg.max_shards}]",
                )
        dcfg = table.config
        for label, value, low, high in (
            ("write_units", table.writes.units, dcfg.min_write_units, dcfg.max_write_units),
            ("pending_write", table.writes.target, dcfg.min_write_units, dcfg.max_write_units),
            ("read_units", table.reads.units, dcfg.min_read_units, dcfg.max_read_units),
            ("pending_read", table.reads.target, dcfg.min_read_units, dcfg.max_read_units),
        ):
            if value is not None and not low <= value <= high:
                self._violate(now, "bounds.storage", f"{label}={value} outside [{low}, {high}]")
        provisioned = fleet.provisioned_count(now)
        if provisioned > fleet.config.max_instances:
            # No minimum check: injected crashes legitimately drop the
            # fleet below min_instances until the controller restores it.
            self._violate(
                now, "bounds.analytics",
                f"provisioned={provisioned} above max {fleet.config.max_instances}",
            )

    def _integrate_and_compare(self, now: int, interval: int) -> None:
        # Capacities are constant between checks (every capacity change
        # lands on a check boundary: an engine boundary, or in a fleet
        # one of the executor's per-flow ``audit`` calls), so
        # end-of-interval values x length integrate exactly; all
        # quantities are integer-valued floats, so the comparison is
        # exact, not approximate.
        capacities = {
            "ingestion": self._stream._shards,
            "analytics": self._fleet.billable_count(now),
            "storage": self._table.writes.units,
            "storage_reads": self._table.reads.units,
        }
        expected = self._expected_unit_seconds
        for name, meter in self._meters.items():
            capacity = capacities.get(name)
            if capacity is None:
                continue
            expected[name] += capacity * interval
            if meter._unit_seconds != expected[name]:
                self._violate(
                    now, "cost.additivity",
                    f"{name}: meter={meter._unit_seconds} != integrated={expected[name]}",
                )
                # Resynchronize so one drift is one violation, not one
                # per subsequent check.
                expected[name] = meter._unit_seconds
        ingestion = self._meters.get("ingestion")
        if ingestion is not None and ingestion._usage_volume != self._stream.total_accepted_records:
            self._violate(
                now, "cost.usage",
                f"ingestion usage={ingestion._usage_volume} != "
                f"accepted={self._stream.total_accepted_records}",
            )

    def _check_bounds(self, now: int) -> None:
        for kind, loop in self._loops.items():
            actuator = loop.actuator
            if not isinstance(actuator, BoundedActuator):
                continue
            records = loop.records
            start = self._record_index[kind]
            schedule = actuator.schedule
            for record in records[start:]:
                # A share schedule's cap is the one in force at the record's time.
                cap = actuator.cap if schedule is None else float(schedule(record.time))
                cap = max(cap, actuator.floor)
                if record.capacity_applied > cap + 1e-9:
                    self._violate(
                        now, "bounds.controller",
                        f"{loop.name}: applied {record.capacity_applied} above cap {cap} "
                        f"at t={record.time}",
                    )
            self._record_index[kind] = len(records)

    def _violate(self, now: int, invariant: str, detail: str) -> None:
        if self._strict:
            raise SimulationError(f"invariant {invariant} violated at t={now}: {detail}")
        self.counts[invariant] = self.counts.get(invariant, 0) + 1
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append(Violation(time=now, invariant=invariant, detail=detail))
        if self._bus is not None:
            published = self._published.get(invariant, 0)
            if published < MAX_EVENTS_PER_INVARIANT:
                self._published[invariant] = published + 1
                self._bus.publish(
                    now, "flow", "invariant.violation",
                    {"invariant": invariant, "detail": detail},
                )

    def report(self) -> InvariantReport:
        return InvariantReport(
            checks=self.checks, counts=dict(self.counts), samples=tuple(self.samples)
        )
