"""Simulated EC2 fleet.

Storm's analytics layer runs on EC2 instances. The behaviour that
matters to an elasticity controller is *actuation latency*: a launched
VM does not serve load until it has booted and joined the cluster, and
a terminating VM stops serving immediately but is still billed until
terminated. This module models exactly that.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from repro.core.errors import CapacityError, ConfigurationError


class InstanceState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    TERMINATED = "terminated"


@dataclass
class Instance:
    """One EC2 instance with its lifecycle timestamps."""

    instance_id: str
    launched_at: int
    ready_at: int
    terminated_at: int | None = None

    def state(self, now: int) -> InstanceState:
        if self.terminated_at is not None and now >= self.terminated_at:
            return InstanceState.TERMINATED
        if now >= self.ready_at:
            return InstanceState.RUNNING
        return InstanceState.PENDING

    def billable(self, now: int) -> bool:
        """Billing starts at launch and stops at termination."""
        if now < self.launched_at:
            return False
        return self.terminated_at is None or now < self.terminated_at


@dataclass(frozen=True)
class EC2Config:
    """Fleet-level configuration.

    Attributes
    ----------
    instance_type:
        Price-book resource key, e.g. ``"ec2.m4.large"``.
    boot_seconds:
        Launch-to-serving latency (boot + joining the Storm cluster).
    min_instances / max_instances:
        Service limits the actuator must respect.
    """

    instance_type: str = "ec2.m4.large"
    boot_seconds: int = 90
    min_instances: int = 1
    max_instances: int = 128

    def __post_init__(self) -> None:
        if self.boot_seconds < 0:
            raise ConfigurationError("boot_seconds must be non-negative")
        if not 1 <= self.min_instances <= self.max_instances:
            raise ConfigurationError(
                f"need 1 <= min_instances <= max_instances, got "
                f"{self.min_instances}..{self.max_instances}"
            )


@dataclass
class SimEC2Fleet:
    """A scalable group of identical instances.

    Queries answer for any ``now``, earlier times included. Beside the
    full launch history the fleet keeps the instances not yet
    terminated, and their launch and ready times as sorted columns,
    rebuilt whenever it launches or retires instances. At or after the
    latest termination every retired instance reads as terminated, so
    the counts and :meth:`next_capacity_event` read the columns alone:
    ``provisioned_count`` is the live count, the others one bisect
    each, O(log live). :meth:`instances` and :meth:`fail_instance` read
    the live instances there, O(live). A query before the latest
    termination scans the whole history.
    """

    config: EC2Config = field(default_factory=EC2Config)
    initial_instances: int = 1
    #: Causal trace of whatever last changed the fleet (a controller's
    #: actuation or an injected crash). The fleet has no event bus of
    #: its own; the Storm cluster reads this when the running VM count
    #: shift surfaces as a rebalance, pinning the rebalance event onto
    #: the decision (or fault) that caused it.
    last_change_trace: str | None = field(default=None, init=False)
    #: Every instance ever launched, in launch order.
    _instances: list[Instance] = field(default_factory=list, init=False)
    #: The instances not yet terminated, in launch order.
    _live: list[Instance] = field(default_factory=list, init=False)
    #: The live instances' ``launched_at`` and ``ready_at``, each sorted.
    _launch_times: list[int] = field(default_factory=list, init=False)
    _ready_times: list[int] = field(default_factory=list, init=False)
    #: Latest ``terminated_at`` stamped so far (``-inf`` before any).
    _last_termination: float = field(default=-math.inf, init=False)
    _ids: "itertools.count[int]" = field(default_factory=itertools.count, init=False)
    # Region-level accounting (multi-flow runs only; see cloud/region.py).
    _region: object | None = field(default=None, init=False)
    _region_flow_id: str | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.config.min_instances <= self.initial_instances <= self.config.max_instances:
            raise CapacityError(
                f"initial_instances={self.initial_instances} outside "
                f"[{self.config.min_instances}, {self.config.max_instances}]"
            )
        # Initial instances are ready immediately: the flow starts from
        # an already-provisioned steady state.
        self._launch(self.initial_instances, launched_at=0, ready_at=0)

    def _launch(self, count: int, launched_at: int, ready_at: int) -> None:
        for _ in range(count):
            instance = Instance(f"i-{next(self._ids):06d}", launched_at, ready_at)
            self._instances.append(instance)
            self._live.append(instance)
        self._reindex()

    def _retire(self, victims: list[Instance], now: int) -> None:
        for victim in victims:
            victim.terminated_at = now
        self._live = [i for i in self._live if i.terminated_at is None]
        self._last_termination = max(self._last_termination, now)
        self._reindex()

    def _reindex(self) -> None:
        self._launch_times = sorted(i.launched_at for i in self._live)
        self._ready_times = sorted(i.ready_at for i in self._live)

    def _scanned(self, now: int) -> list[Instance]:
        """The instances a query at ``now`` must look at. At or after the
        latest termination every retired instance reads as terminated,
        so the live list holds every answer; before it, the history."""
        return self._live if now >= self._last_termination else self._instances

    def attach_region(self, region, flow_id: str) -> None:
        """Draw this fleet's instances from a shared region pool.

        Scale-ups then require account headroom: :meth:`set_desired`
        raises :class:`~repro.core.errors.RegionCapacityError` when the
        launch would exceed the region's instance limit. Scale-downs
        are never gated.
        """
        region.register("instances", flow_id, self.provisioned_count)
        self._region = region
        self._region_flow_id = flow_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def instances(self, now: int, state: InstanceState | None = None) -> list[Instance]:
        """Instances not terminated at ``now`` (optionally only those in
        ``state``), in launch order."""
        live = [i for i in self._scanned(now) if i.state(now) != InstanceState.TERMINATED]
        if state is None:
            return live
        return [i for i in live if i.state(now) == state]

    def running_count(self, now: int) -> int:
        """Instances actually serving load at ``now``."""
        if now >= self._last_termination:
            return bisect_right(self._ready_times, now)
        return len(self.instances(now, InstanceState.RUNNING))

    def provisioned_count(self, now: int) -> int:
        """Instances launched or booting (the actuator's set-point view)."""
        if now >= self._last_termination:
            return len(self._live)
        return len(self.instances(now))

    def billable_count(self, now: int) -> int:
        """Instances billed at ``now`` (launched, not terminated)."""
        if now >= self._last_termination:
            return bisect_right(self._launch_times, now)
        return sum(1 for i in self._instances if i.billable(now))

    def next_capacity_event(self, now: int) -> int | None:
        """Earliest future time the running-instance count will change.

        The span scheduler's horizon: the next boot completing
        (``ready_at``) or, defensively, a termination scheduled in the
        future (the built-in actuators terminate at the current time,
        so in practice only boots appear here). ``None`` when the fleet
        is stable past ``now``. At or after the latest termination,
        the first live ready time after ``now``.
        """
        if now >= self._last_termination:
            ready = self._ready_times
            j = bisect_right(ready, now)
            return ready[j] if j < len(ready) else None
        best: int | None = None
        for instance in self._instances:
            terminated_at = instance.terminated_at
            if terminated_at is not None and terminated_at <= now:
                continue
            if instance.ready_at > now and (best is None or instance.ready_at < best):
                best = instance.ready_at
            if terminated_at is not None and terminated_at > now:
                if best is None or terminated_at < best:
                    best = terminated_at
        return best

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def fail_instance(self, instance_id: str, now: int) -> bool:
        """Kill one instance (hardware failure): it stops serving *and*
        being billed immediately, without a controller's involvement.

        Returns False if the instance is unknown or already terminated.
        At or after the latest termination the lookup reads only the
        live instances, since every retired one would answer False.
        """
        for instance in self._scanned(now):
            if instance.instance_id == instance_id:
                if instance.state(now) == InstanceState.TERMINATED:
                    return False
                self._retire([instance], now)
                if self._region is not None:
                    self._region.note_capacity_change()
                return True
        return False

    def set_desired(self, desired: int, now: int) -> int:
        """Scale the fleet toward ``desired`` instances.

        Launches boot after ``config.boot_seconds``; terminations pick
        the newest instances first (they are least likely to hold warm
        state) and take effect immediately. Returns the clamped desired
        count actually applied.
        """
        desired = max(self.config.min_instances, min(self.config.max_instances, int(desired)))
        current = self.provisioned_count(now)
        if desired > current:
            if self._region is not None:
                # All-or-nothing admission: raises RegionCapacityError
                # (and launches nothing) without account headroom.
                self._region.admit("instances", self._region_flow_id, desired, now)
            self._launch(desired - current, launched_at=now, ready_at=now + self.config.boot_seconds)
            if self._region is not None:
                self._region.note_capacity_change()
        elif desired < current:
            victims = sorted(
                self.instances(now), key=lambda i: i.launched_at, reverse=True
            )[: current - desired]
            self._retire(victims, now)
            if self._region is not None:
                self._region.note_capacity_change()
        return desired
