"""Simulated Apache Storm cluster on EC2 (the analytics layer).

The CPU model is deliberately affine in the per-VM record rate, because
the paper's own dependency model (Eq. 2: ``CPU ~ 0.0002 * WriteCapacity
+ 4.8``) asserts exactly that linearity — the intercept is the idle CPU
of the topology and the slope is per-record processing cost. Defaults
are calibrated so a one-VM cluster reproduces Eq. 2's coefficients when
the rate is measured in records/minute.

The cluster pulls records from an upstream Kinesis stream, queues what
it cannot process ("pending tuples"), and emits windowed aggregates
(one storage write per distinct key per window) downstream — which is
why storage-layer write volume tracks the number of *distinct* pages
rather than raw click volume, matching the paper's observation that
Kinesis and DynamoDB write capacities were uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.cloud.ec2 import SimEC2Fleet
from repro.cloud.kinesis import SimKinesisStream  # noqa: F401 - part of the data path API
from repro.core.errors import ConfigurationError
from repro.simulation.clock import SimClock

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: CloudWatch namespace used by the cluster's metrics.
NAMESPACE = "Custom/Storm"

#: The cluster's metrics, in emission order: one frame in the store.
METRICS = (
    "CPUUtilization",
    "ProcessedRecords",
    "PendingTuples",
    "RunningVMs",
    "ProvisionedVMs",
    "EmittedWrites",
)


@dataclass(frozen=True)
class BoltSpec:
    """One bolt of a topology: its parallelism and per-executor rate."""

    name: str
    records_per_executor_per_second: int
    executors: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("bolt name must be non-empty")
        if self.records_per_executor_per_second <= 0:
            raise ConfigurationError(f"bolt {self.name!r}: per-executor rate must be positive")
        if self.executors <= 0:
            raise ConfigurationError(f"bolt {self.name!r}: executors must be positive")

    @property
    def capacity(self) -> int:
        """Records/second at full parallelism."""
        return self.records_per_executor_per_second * self.executors


@dataclass(frozen=True)
class TopologyConfig:
    """An explicit Storm topology, for the fixed-parallelism model.

    Real Storm assigns a topology's executors to worker slots once;
    adding VMs does **not** add throughput until the topology is
    *rebalanced*, and rebalancing briefly deactivates the spouts. With
    a topology configured, the cluster models exactly that: capacity is
    the bottleneck bolt's executor throughput, executors are packed
    into ``executor_slots_per_vm * running VMs`` slots (scaling down
    proportionally when slots are short), and every change in the
    running VM count triggers a rebalance window during which nothing
    is processed.
    """

    bolts: tuple[BoltSpec, ...]
    executor_slots_per_vm: int = 4
    rebalance_seconds: int = 30

    def __post_init__(self) -> None:
        if not self.bolts:
            raise ConfigurationError("a topology needs at least one bolt")
        names = [bolt.name for bolt in self.bolts]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate bolt names: {names}")
        if self.executor_slots_per_vm <= 0:
            raise ConfigurationError("executor_slots_per_vm must be positive")
        if self.rebalance_seconds < 0:
            raise ConfigurationError("rebalance_seconds must be non-negative")

    @property
    def total_executors(self) -> int:
        return sum(bolt.executors for bolt in self.bolts)

    def capacity_with_slots(self, slots: int) -> int:
        """Bottleneck throughput when only ``slots`` executor slots exist.

        When the requested executors exceed the available slots, every
        bolt's parallelism is reduced proportionally (Storm packs
        multiple executors per slot at reduced efficiency; the linear
        model keeps the bottleneck structure).
        """
        if slots <= 0:
            return 0
        scale = min(1.0, slots / self.total_executors)
        return int(min(bolt.capacity * scale for bolt in self.bolts))


@dataclass(frozen=True)
class StormConfig:
    """Topology performance model.

    Attributes
    ----------
    records_per_vm_per_second:
        Record rate at which one VM saturates (CPU -> 100%).
    cpu_idle_percent:
        Cluster CPU with zero input (supervisors, acker threads, JVM).
    poll_factor:
        How much faster than its processing capacity the spout may pull
        from Kinesis, to drain stream backlog after under-provisioning.
    window_seconds:
        Tumbling-window length of the aggregation bolt; one storage
        write is emitted per distinct key per window flush.
    cpu_noise_std:
        Std-dev of the Gaussian measurement noise on reported CPU.
    """

    records_per_vm_per_second: int = 8000
    cpu_idle_percent: float = 4.8
    poll_factor: float = 1.5
    window_seconds: int = 10
    cpu_noise_std: float = 0.8

    def __post_init__(self) -> None:
        if self.records_per_vm_per_second <= 0:
            raise ConfigurationError("records_per_vm_per_second must be positive")
        if not 0.0 <= self.cpu_idle_percent < 100.0:
            raise ConfigurationError("cpu_idle_percent must be in [0, 100)")
        if self.poll_factor < 1.0:
            raise ConfigurationError("poll_factor must be >= 1")
        if self.window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        if self.cpu_noise_std < 0:
            raise ConfigurationError("cpu_noise_std must be non-negative")

    @property
    def cpu_slope_per_record_per_second(self) -> float:
        """CPU percentage points per (record/second) of per-VM load."""
        return (100.0 - self.cpu_idle_percent) / self.records_per_vm_per_second


class SimStormCluster:
    """Storm topology over an EC2 fleet, pulling from Kinesis."""

    def __init__(
        self,
        fleet: SimEC2Fleet,
        config: StormConfig | None = None,
        rng: np.random.Generator | None = None,
        name: str = "clickstream-topology",
        distinct_estimator: "Callable[[int], float] | None" = None,
        topology: TopologyConfig | None = None,
    ) -> None:
        self.name = name
        # Metric dimensions are immutable for the cluster's lifetime;
        # built once instead of per emit call.
        self._dims = {"Topology": name}
        self._dims_key = (("Topology", name),)
        self.fleet = fleet
        self.config = config or StormConfig()
        self.topology = topology
        self._last_running_vms: int | None = None
        self._rebalancing_until = 0
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Maps a window's record count to its expected distinct-key
        # count (the aggregation model). When absent, the per-tick
        # distinct_keys passed to pull_and_process are averaged instead.
        self._distinct_estimator = distinct_estimator
        self._pending_records = 0
        self._window_keys = 0.0
        self._window_records = 0
        self._window_elapsed = 0
        # Per-tick observables, flushed by emit_metrics().
        self._tick_processed = 0
        self._tick_cpu = self.config.cpu_idle_percent
        self._tick_writes_emitted = 0
        # Lifetime conservation counters (never reset; audited by the
        # invariant checker against the stream and the storage table).
        self.total_processed = 0
        self.total_writes_emitted = 0
        # Flight-recorder hooks (off unless attach_bus() is called).
        self._bus = None
        self._bus_layer = "analytics"
        # Noisy-neighbor contention source (multi-flow runs only).
        self._region = None

    def attach_bus(self, bus, layer: str = "analytics") -> None:
        """Publish topology rebalance events to a flight recorder."""
        self._bus = bus
        self._bus_layer = layer

    def attach_region(self, region) -> None:
        """Subject this cluster to the region's shared-pool contention.

        Processing capacity is scaled by the region's
        ``contention_factor`` — a pure function of the flows' combined
        committed instance counts, constant between control/chaos
        boundaries, so span execution stays bit-identical. The fleet
        registers itself with the region separately; the cluster only
        *reads* the contention signal.
        """
        self._region = region

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def pull_and_process(
        self, stream: SimKinesisStream, distinct_keys: int, clock: SimClock
    ) -> int:
        """Run one tick of the topology.

        Pulls up to ``poll_factor`` times the processing capacity from
        the stream, processes what capacity allows (the rest queues as
        pending tuples), folds ``distinct_keys`` into the current
        aggregation window, and returns the storage writes emitted by
        any window flush this tick.
        """
        if distinct_keys < 0:
            raise ConfigurationError("distinct_keys must be non-negative")
        now = clock.now
        vms = self.fleet.running_count(now)
        capacity = self._capacity_this_tick(vms, now) * clock.tick_seconds
        poll_limit = int(capacity * self.config.poll_factor)
        pulled = stream.get_records(max(0, poll_limit - self._pending_records), clock)
        self._pending_records += pulled
        processed = min(self._pending_records, capacity)
        self._pending_records -= processed
        self._tick_processed = processed
        self.total_processed += processed

        # CPU: affine in the capacity fraction in use (which reduces to
        # "affine in per-VM record rate" for the homogeneous model),
        # saturating at 100 when tuples are left pending, plus noise.
        if vms > 0:
            idle = self.config.cpu_idle_percent
            if capacity > 0:
                cpu = idle + (100.0 - idle) * (processed / capacity)
            else:
                cpu = idle  # workers up but paused (rebalance)
            if self._pending_records > 0:
                cpu = 100.0
        else:
            cpu = 0.0
        noise = float(self._rng.normal(0.0, self.config.cpu_noise_std)) if self.config.cpu_noise_std else 0.0
        self._tick_cpu = float(min(100.0, max(0.0, cpu + noise)))

        # Windowed aggregation: one storage write per distinct key per
        # tumbling window. With a distinct estimator the key count is
        # derived from the whole window's record volume (saturating at
        # the hot-page set); otherwise the per-tick counts are averaged.
        if self._distinct_estimator is None:
            self._window_keys += distinct_keys
        self._window_records += processed
        self._window_elapsed += clock.tick_seconds
        writes = 0
        if self._window_elapsed >= self.config.window_seconds:
            if self._distinct_estimator is not None:
                expected = self._distinct_estimator(self._window_records)
                writes = int(self._rng.poisson(expected)) if expected > 0 else 0
            else:
                ticks_in_window = max(1, self._window_elapsed // clock.tick_seconds)
                writes = int(round(self._window_keys / ticks_in_window))
            self._window_keys = 0.0
            self._window_records = 0
            self._window_elapsed = 0
        self._tick_writes_emitted = writes
        self.total_writes_emitted += writes
        return writes

    def _capacity_this_tick(self, vms: int, now: int) -> int:
        """Records/second available this tick, handling rebalances.

        Without a topology: VM count times the per-VM rate. With one:
        the bottleneck-bolt throughput under the current slot count —
        and zero while a rebalance (triggered by any change in the
        running VM count) is in flight.
        """
        if self.topology is None:
            if now < self._rebalancing_until:
                return 0  # forced (injected) rebalance window
            return self._contended(vms * self.config.records_per_vm_per_second, now)
        if self._last_running_vms is None:
            self._last_running_vms = vms
        elif vms != self._last_running_vms:
            previous = self._last_running_vms
            self._last_running_vms = vms
            self._rebalancing_until = now + self.topology.rebalance_seconds
            if self._bus is not None:
                # The VM-count change may surface ticks after the
                # actuation that caused it (boot latency); the fleet
                # carries that decision's trace forward. The rebalance
                # consumes it — cleared so a later count change that
                # sets no trace of its own cannot inherit a stale one.
                trace = getattr(self.fleet, "last_change_trace", None)
                self._bus.publish(
                    now,
                    self._bus_layer,
                    "rebalance",
                    {"from_vms": previous, "to_vms": vms, "until": self._rebalancing_until},
                    trace=trace,
                )
                if trace is not None:
                    self.fleet.last_change_trace = None
        if now < self._rebalancing_until:
            return 0
        slots = vms * self.topology.executor_slots_per_vm
        return self._contended(self.topology.capacity_with_slots(slots), now)

    def _contended(self, capacity: int, now: int) -> int:
        """Scale capacity by the region's noisy-neighbor factor."""
        if self._region is None:
            return capacity
        factor = self._region.contention_factor(now)
        if factor == 1.0:
            return capacity
        return int(capacity * factor)

    def force_rebalance(self, now: int, duration: int) -> int:
        """Inject a failed/stuck rebalance: pause processing until
        ``now + duration``.

        Extends any rebalance already in flight rather than shortening
        it. Works with or without an explicit topology (the paper's
        homogeneous model also stops processing while Storm redeploys).
        Returns the time the window ends.
        """
        if duration <= 0:
            raise ConfigurationError(f"rebalance duration must be positive, got {duration}")
        until = max(self._rebalancing_until, now + duration)
        self._rebalancing_until = until
        if self._bus is not None:
            self._bus.publish(
                now, self._bus_layer, "rebalance",
                {"forced": True, "until": until},
            )
        return until

    def rebalancing(self, now: int) -> bool:
        """Whether a (topology or forced) rebalance is in flight at ``now``."""
        return now < self._rebalancing_until

    def rebalances_at(self, now: int) -> bool:
        """Whether the tick at ``now`` starts a topology rebalance: the
        cluster has a topology and the running VM count it will see
        there differs from the one it last saw. The rebalance's end is
        set only when that tick runs."""
        last = self._last_running_vms
        return (
            self.topology is not None
            and last is not None
            and self.fleet.running_count(now) != last
        )

    def next_capacity_event(self, now: int) -> int | None:
        """Earliest future time the cluster's own capacity will change.

        The only internal event is a rebalance window ending (VM-count
        changes come from the fleet and are reported by its own
        ``next_capacity_event``). ``None`` when no rebalance is in
        flight past ``now``.
        """
        if now < self._rebalancing_until:
            return self._rebalancing_until
        return None

    @property
    def pending_records(self) -> int:
        """Tuples pulled from the stream but not yet processed."""
        return self._pending_records

    def processing_capacity(self, now: int) -> int:
        """Records/second the cluster can process at ``now``."""
        return self._capacity_this_tick(self.fleet.running_count(now), now)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def emit_metrics(self, cloudwatch, clock: SimClock) -> None:
        now = clock.now
        cloudwatch.put_metric_frame(NAMESPACE, METRICS, now, (
            self._tick_cpu, self._tick_processed, self._pending_records,
            self.fleet.running_count(now), self.fleet.provisioned_count(now),
            self._tick_writes_emitted,
        ), self._dims_key)

    def emit_metrics_span(
        self,
        cloudwatch,
        times: ArrayLike,
        cpu: ArrayLike,
        processed: ArrayLike,
        pending: ArrayLike,
        writes: ArrayLike,
        running_vms: int,
        provisioned_vms: int,
    ) -> None:
        """Columnar :meth:`emit_metrics` for a whole span of ticks: one
        frame append (lists from the scalar recurrence, arrays from the
        vector stretch).

        VM counts are constant inside a span (any change is a span
        boundary), so they arrive as scalars, which the store keeps as
        steps.
        """
        cloudwatch.put_metric_frame_batch(NAMESPACE, METRICS, times, (
            cpu, processed, pending, running_vms, provisioned_vms, writes,
        ), self._dims_key)
