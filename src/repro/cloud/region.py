"""Region-level shared resources: one account, many flows.

A single flow's services enforce only their *own* limits (a stream's
``max_shards``, a fleet's ``max_instances``). Real accounts add a layer
above that: every flow in a region draws shards, instances and
provisioned throughput from one shared pool, and AWS rejects the
launch / reshard / ``UpdateTable`` that would exceed the account limit
no matter how reasonable it looks to the flow that asked.

:class:`RegionContext` models exactly that layer. Services attach to a
region with a flow id; their capacity-*increase* paths then ask the
region for headroom first and raise
:class:`~repro.core.errors.RegionCapacityError` when the account is
full. The error is truthful on both axes — it *is* a capacity error,
and it *is* transient (another flow scaling down frees the headroom) —
so each flow's existing retry + circuit-breaker actuator stack absorbs
region denials with no special cases.

Accounting rules (the region-resource contract, see DESIGN.md):

* usage is **committed** capacity: what the account has promised, not
  what is serving yet. A booting instance, an in-flight reshard target
  and a pending ``UpdateTable`` target all count in full from the
  moment they are accepted — otherwise two flows could both be granted
  the last headroom during the actuation latency window;
* accounting is **pure**: a query sums the registered services'
  committed capacity, and keeps the sum only until the next committed
  change (every one bumps ``capacity_version``), so a chaos-killed
  instance or an expired reshard frees headroom the instant the
  service reflects it;
* decreases always succeed — the region only gates increases;
* admission is all-or-nothing: a denied request changes nothing (no
  partial grants), and the denial is counted per flow and resource.

The region also models **noisy-neighbor contention** on the shared EC2
pool: when the flows' combined provisioned instances push pool
utilization past ``contention_threshold``, every cluster's per-VM
throughput degrades linearly (up to ``contention_slope`` at a full
pool). The factor is a pure function of committed instance counts,
which change only at control/chaos boundaries — never inside a span —
so span-batched execution stays bit-identical to the per-tick loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.errors import ConfigurationError, RegionCapacityError
from repro.core.flow import LayerKind

#: The account resources, by the names the accounting, the admission
#: check and the denial counts use, each with the :class:`RegionLimits`
#: field that caps it.
RESOURCE_LIMITS: dict[str, str] = {
    "instances": "max_instances",
    "shards": "max_total_shards",
    "write_units": "max_total_write_units",
    "read_units": "max_total_read_units",
}

#: The account resource each controlled layer's capacity draws on.
LAYER_RESOURCE: dict[LayerKind, str] = {
    LayerKind.INGESTION: "shards",
    LayerKind.ANALYTICS: "instances",
    LayerKind.STORAGE: "write_units",
}


@dataclass(frozen=True)
class RegionLimits:
    """Account-level limits shared by every flow in the region.

    Attributes
    ----------
    max_instances:
        Size of the shared EC2 capacity pool (account instance limit).
    max_total_shards:
        Account-wide Kinesis shard limit, summed over all streams.
    max_total_write_units / max_total_read_units:
        Account-wide DynamoDB provisioned throughput, summed over all
        tables, per dimension.
    contention_threshold:
        Pool-utilization fraction above which noisy-neighbor contention
        sets in (1.0 disables contention entirely).
    contention_slope:
        Fraction of per-VM throughput lost at a 100% full pool; the
        loss ramps linearly from the threshold to the full pool.
    """

    max_instances: int = 256
    max_total_shards: int = 1024
    max_total_write_units: int = 80_000
    max_total_read_units: int = 80_000
    contention_threshold: float = 0.8
    contention_slope: float = 0.3

    def __post_init__(self) -> None:
        if self.max_instances < 1 or self.max_total_shards < 1:
            raise ConfigurationError("region instance/shard limits must be >= 1")
        if self.max_total_write_units < 1 or self.max_total_read_units < 1:
            raise ConfigurationError("region throughput limits must be >= 1")
        if not 0.0 < self.contention_threshold <= 1.0:
            raise ConfigurationError(
                f"contention_threshold must be in (0, 1], got {self.contention_threshold}"
            )
        if not 0.0 <= self.contention_slope < 1.0:
            raise ConfigurationError(
                f"contention_slope must be in [0, 1), got {self.contention_slope}"
            )

    def limit(self, resource: str) -> int:
        """The account limit on ``resource``, a :data:`RESOURCE_LIMITS` key."""
        return getattr(self, RESOURCE_LIMITS[resource])


class RegionContext:
    """Shared capacity pool and account limits for a set of flows.

    Services self-register through their ``attach_region`` methods;
    flows never talk to the region directly. Every resource goes
    through one registry, one accounting sum and one admission check,
    keyed by the :data:`RESOURCE_LIMITS` names (see the module
    docstring for the contract).
    """

    def __init__(self, limits: RegionLimits | None = None, name: str = "sim-region-1") -> None:
        self.name = name
        self.limits = limits or RegionLimits()
        #: resource -> {flow_id: committed(now)}.
        self._committed: dict[str, dict[str, Callable[[int], int]]] = {
            resource: {} for resource in RESOURCE_LIMITS
        }
        #: Denials per (flow_id, resource), resource a
        #: :data:`RESOURCE_LIMITS` key.
        self.denial_counts: dict[tuple[str, str], int] = {}
        #: Bumped by the services on every committed-capacity change;
        #: keys the memoized accounting sums below.
        self.capacity_version = 0
        self._flow_ids_cache: list[str] | None = None
        #: resource -> (capacity_version, value). Committed capacity is
        #: time-independent between mutations — the stream's and the
        #: table's committed values take no clock, and terminations
        #: stamp a past ``terminated_at`` — and every mutation path
        #: bumps the version, so a version hit is exact at any ``now``.
        self._sum_cache: dict[str, tuple[int, int]] = {}

    def note_capacity_change(self) -> None:
        """Invalidate the memoized accounting sums.

        Services call this from every path that changes *committed*
        capacity: fleet scale/failure, reshard requests, and table
        capacity updates. Ripening a pending target does not change the
        committed value (the target already counted in full), so the
        apply paths need no bump.
        """
        self.capacity_version += 1

    # ------------------------------------------------------------------
    # Registration (called by the services' attach_region methods)
    # ------------------------------------------------------------------
    def register(self, resource: str, flow_id: str, committed: Callable[[int], int]) -> None:
        """Count ``committed(now)``, a pure read of what the account has
        committed to one of ``flow_id``'s services, against
        ``resource``'s limit."""
        services = self._committed[resource]
        if flow_id in services:
            raise ConfigurationError(f"flow {flow_id!r} already registered its {resource}")
        services[flow_id] = committed
        self._flow_ids_cache = None
        self.note_capacity_change()

    @property
    def flow_ids(self) -> list[str]:
        """Every flow id that registered at least one service."""
        if self._flow_ids_cache is None:
            self._flow_ids_cache = sorted(set().union(*self._committed.values()))
        return self._flow_ids_cache

    # ------------------------------------------------------------------
    # Pure accounting queries
    # ------------------------------------------------------------------
    def committed(self, resource: str, flow_id: str, now: int) -> int:
        """``flow_id``'s committed ``resource`` at ``now``."""
        return self._committed[resource][flow_id](now)

    def in_use(self, resource: str, now: int) -> int:
        """Committed ``resource`` across all flows: booting instances,
        in-flight reshard targets and pending table updates count."""
        cached = self._sum_cache.get(resource)
        if cached is not None and cached[0] == self.capacity_version:
            return cached[1]
        value = sum(committed(now) for committed in self._committed[resource].values())
        self._sum_cache[resource] = (self.capacity_version, value)
        return value

    def headroom(self, now: int) -> dict[str, int]:
        """Remaining account headroom per resource at ``now``."""
        return {
            resource: self.limits.limit(resource) - self.in_use(resource, now)
            for resource in RESOURCE_LIMITS
        }

    def pool_utilization(self, now: int) -> float:
        """Committed fraction of the shared EC2 pool in [0, ∞)."""
        return self.in_use("instances", now) / self.limits.max_instances

    def contention_factor(self, now: int) -> float:
        """Per-VM throughput multiplier under the current pool load.

        1.0 at or below ``contention_threshold`` utilization, ramping
        linearly down to ``1 - contention_slope`` at a 100% committed
        pool. Pure: safe to call from the data path, and constant
        between control/chaos boundaries (committed instance counts
        only change there), so spans see a single value.
        """
        threshold = self.limits.contention_threshold
        slope = self.limits.contention_slope
        if slope == 0.0 or threshold >= 1.0:
            return 1.0
        utilization = self.pool_utilization(now)
        if utilization <= threshold:
            return 1.0
        over = min(1.0, (utilization - threshold) / (1.0 - threshold))
        return 1.0 - slope * over

    # ------------------------------------------------------------------
    # Admission (called by the services' capacity-increase paths)
    # ------------------------------------------------------------------
    def admit(self, resource: str, flow_id: str, target: int, now: int) -> None:
        """Gate an increase of ``flow_id``'s committed ``resource`` to
        ``target``: raise :class:`RegionCapacityError`, and count the
        denial, when the account's other commitments leave too little."""
        own = self.committed(resource, flow_id, now)
        others = self.in_use(resource, now) - own
        limit = self.limits.limit(resource)
        if others + target > limit:
            key = (flow_id, resource)
            self.denial_counts[key] = self.denial_counts.get(key, 0) + 1
            raise RegionCapacityError(
                f"region {self.name!r}: flow {flow_id!r} asked for {target - own} more "
                f"{resource} but only {max(0, limit - others)} remain in the account"
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def total_denials(self, flow_id: str | None = None) -> int:
        """Denials across resources, optionally for one flow."""
        return sum(
            count
            for (fid, _resource), count in self.denial_counts.items()
            if flow_id is None or fid == flow_id
        )

    def denials_by_flow(self) -> dict[str, dict[str, int]]:
        """``{flow_id: {resource: denials}}``, sorted for stable output."""
        out: dict[str, dict[str, int]] = {}
        for (flow_id, resource), count in sorted(self.denial_counts.items()):
            out.setdefault(flow_id, {})[resource] = count
        return out
