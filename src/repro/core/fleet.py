"""Multi-flow region fleets: shared limits, one engine, a coordinator.

One :class:`~repro.core.manager.FlowElasticityManager` runs one flow.
This module runs *N* of them against a single
:class:`~repro.cloud.region.RegionContext` — a shared EC2 pool and
account-level shard/throughput limits — on one shared simulation
engine, with a :class:`FleetCoordinator` arbitrating how much of the
account each flow's controllers may claim.

The arbitration model follows the paper's share architecture one level
up: the share analyzer grants each *layer* an upper bound inside one
flow's budget (Sec. 2); the coordinator grants each *flow* an upper
bound inside the region's account limits. The enforcement point is the
same :class:`~repro.control.bounded.BoundedActuator` — the coordinator
retargets each flow's per-layer caps at a slower cadence than the
per-flow control loops, so flows keep reacting at control speed while
the cross-flow contract moves slowly and predictably.

Determinism: the whole fleet shares one engine, and one
:class:`~repro.core.fleet_exec.FleetSpanExecutor` runs every flow's
data path, splitting each flow's share of a span at that flow's own
capacity events, so span and per-tick execution stay bit-identical per
flow; per-flow seeds are derived from the fleet seed and the flow
*name*, so adding or reordering flows does not reshuffle the others'
randomness; and a fleet run is a plain function of its arguments, so
``analysis/runner.py`` parallelizes whole fleet scenarios across
processes with byte-identical results.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import InvariantChecker
from repro.chaos.schedule import ChaosSchedule
from repro.cloud.cloudwatch import left_fold
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.ec2 import EC2Config
from repro.cloud.kinesis import KinesisConfig
from repro.cloud.region import LAYER_RESOURCE, RegionContext, RegionLimits
from repro.cloud.storm import StormConfig
from repro.control.bounded import BoundedActuator
from repro.core.config import LayerControlConfig
from repro.core.errors import ConfigurationError
from repro.core.fleet_exec import FleetSpanExecutor
from repro.core.flow import LayerKind
from repro.core.manager import FlowElasticityManager, FlowRunResult, ServiceCapacities
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import derive_scenario_seed
from repro.workload.generators import RatePattern

#: Arbitrated layers, in decision order.
COORDINATED_LAYERS = (LayerKind.INGESTION, LayerKind.ANALYTICS, LayerKind.STORAGE)

#: Weight of one unit of controller pressure (a share-bound clamp or a
#: failed actuation attempt) against one unit of committed usage in the
#: coordinator's demand weights.
PRESSURE_GAIN = 2.0

#: Component phases for the shared engine's grouped ordering: every
#: flow's data path (the executor) must run before any flow's auditor,
#: and every auditor before any fault injector, so a fault injected at
#: tick T reaches all flows' data paths at T+1 in both execution modes.
_COMPONENT_PHASE = {FleetSpanExecutor: 0, InvariantChecker: 1, ChaosInjector: 2}


@dataclass(frozen=True)
class FleetFlowSpec:
    """One flow's definition inside a region fleet."""

    name: str
    workload: RatePattern
    capacities: ServiceCapacities | None = None
    controls: dict[LayerKind, LayerControlConfig] | None = None
    #: Initial per-layer caps (the coordinator retargets them at run
    #: time). Defaults to an equal split of the account limits.
    share_bounds: dict[LayerKind, int] | None = None
    chaos: ChaosSchedule | None = None
    kinesis: KinesisConfig | None = None
    storm: StormConfig | None = None
    ec2: EC2Config | None = None
    dynamodb: DynamoDBConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fleet flow name must be non-empty")


@dataclass(frozen=True)
class CoordinationRecord:
    """One coordinator decision: the caps granted at ``time``."""

    time: int
    #: ``{flow_id: {layer: cap}}`` — the bounds in force after this pass.
    grants: dict[str, dict[LayerKind, int]]
    #: ``{flow_id: {layer: weight}}`` — the demand weights used.
    weights: dict[str, dict[LayerKind, float]]


class FleetCoordinator:
    """Arbitrates account headroom across flows at a slow cadence.

    Every ``period`` seconds the coordinator, for each arbitrated
    layer, splits the region's account limit across the flows in
    proportion to *demand weight* — the flow's committed usage plus the
    pressure its controllers showed since the last pass (share-bound
    clamps and failed actuation attempts, which is where region
    denials surface) — and retargets each flow's
    :class:`BoundedActuator` cap to its grant. Flows under pressure
    grow their grant; idle flows shrink toward their floor, returning
    headroom to the pool. Grants never drop below the layer's service
    minimum.

    The arithmetic is pure integer/float bookkeeping over committed
    state, so coordination is deterministic and identical between span
    and per-tick execution (it runs as an engine task, always at a
    span boundary).
    """

    def __init__(
        self,
        managers: dict[str, FlowElasticityManager],
        region: RegionContext,
        period: int = 300,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"coordinator period must be positive, got {period}")
        self.managers = managers
        self.region = region
        self.period = period
        self.records: list[CoordinationRecord] = []
        #: Lifetime count of cap retargets that changed a bound.
        self.retargets = 0
        # Pressure counters are cumulative on the actuators; remember
        # the last reading to difference them per pass.
        self._last_pressure: dict[tuple[str, LayerKind], float] = {}

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def _bounded_actuator(self, manager: FlowElasticityManager, kind: LayerKind):
        loop = manager.loops.get(kind)
        if loop is None:
            return None
        actuator = loop.actuator
        return actuator if isinstance(actuator, BoundedActuator) else None

    def _floor(self, manager: FlowElasticityManager, kind: LayerKind) -> int:
        if kind is LayerKind.INGESTION:
            return manager.stream.config.min_shards
        if kind is LayerKind.ANALYTICS:
            return manager.fleet.config.min_instances
        return manager.table.config.min_write_units

    def _pressure(self, flow_id: str, manager: FlowElasticityManager, kind: LayerKind) -> float:
        """Pressure shown since the last pass: clamps + failed attempts."""
        actuator = self._bounded_actuator(manager, kind)
        if actuator is None:
            return 0.0
        cumulative = float(actuator.clamped_requests)
        inner = actuator.inner
        failed = getattr(inner, "failed_attempts", None)
        if failed is not None:
            cumulative += float(failed)
        key = (flow_id, kind)
        previous = self._last_pressure.get(key, 0.0)
        self._last_pressure[key] = cumulative
        return cumulative - previous

    # ------------------------------------------------------------------
    # The coordination pass (registered as a periodic engine task)
    # ------------------------------------------------------------------
    def coordinate(self, now: int) -> None:
        grants: dict[str, dict[LayerKind, int]] = {}
        weights: dict[str, dict[LayerKind, float]] = {}
        for kind in COORDINATED_LAYERS:
            flows = [
                (flow_id, manager, self._bounded_actuator(manager, kind))
                for flow_id, manager in self.managers.items()
            ]
            flows = [(fid, m, a) for fid, m, a in flows if a is not None]
            if not flows:
                continue
            resource = LAYER_RESOURCE[kind]
            limit = self.region.limits.limit(resource)
            demand: list[float] = []
            floors: list[int] = []
            for flow_id, manager, _actuator in flows:
                usage = self.region.committed(resource, flow_id, now)
                pressure = self._pressure(flow_id, manager, kind)
                weight = float(usage) + PRESSURE_GAIN * pressure + 1.0
                demand.append(weight)
                floors.append(self._floor(manager, kind))
                weights.setdefault(flow_id, {})[kind] = weight
            total = left_fold(demand)
            for (flow_id, _manager, actuator), weight, floor in zip(flows, demand, floors):
                cap = max(floor, int(limit * weight / total))
                grants.setdefault(flow_id, {})[kind] = cap
                new_cap = float(cap)
                if actuator.cap != new_cap:
                    actuator.cap = new_cap
                    self.retargets += 1
        self.records.append(CoordinationRecord(time=now, grants=grants, weights=weights))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def bound_trajectory(self, flow_id: str, kind: LayerKind) -> list[tuple[int, int]]:
        """``(time, cap)`` per pass for one flow and layer."""
        return [
            (record.time, record.grants[flow_id][kind])
            for record in self.records
            if flow_id in record.grants and kind in record.grants[flow_id]
        ]


@dataclass
class FleetRunResult:
    """Everything a finished region fleet run exposes."""

    duration_seconds: int
    flows: dict[str, FlowRunResult]
    region: RegionContext
    coordinator: FleetCoordinator | None
    wall_seconds: float = 0.0
    #: Whether every flow ran on the bit-exact workload path.
    exact: bool = True
    #: Per-flow wall-clock attribution from the engine's
    #: :class:`~repro.observability.profiler.TickProfiler` (span
    #: execution only; empty when profiling is off). Informational —
    #: machine-dependent, never gated on.
    flow_wall_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return left_fold(result.total_cost for result in self.flows.values())

    def denials_by_flow(self) -> dict[str, dict[str, int]]:
        """Region admission denials per flow and resource."""
        return self.region.denials_by_flow()

    def summary(self) -> str:
        """A compact per-flow digest of the fleet run."""
        lines = [
            f"region fleet: {len(self.flows)} flows, "
            f"{self.duration_seconds}s simulated, "
            f"${self.total_cost:.2f} total"
        ]
        denials = self.denials_by_flow()
        for flow_id, result in self.flows.items():
            violations = (
                result.invariants.total_violations if result.invariants is not None else 0
            )
            flow_denials = sum(denials.get(flow_id, {}).values())
            lines.append(
                f"  {flow_id}: ${result.total_cost:.2f}, "
                f"drops={result.dropped_records + result.dropped_writes}, "
                f"denials={flow_denials}, violations={violations}"
            )
        if self.coordinator is not None:
            lines.append(
                f"  coordinator: {len(self.coordinator.records)} passes, "
                f"{self.coordinator.retargets} cap retargets"
            )
        return "\n".join(lines)


class RegionFleetManager:
    """Builds and runs N managed flows against one shared region."""

    def __init__(
        self,
        flows: list[FleetFlowSpec],
        limits: RegionLimits | None = None,
        seed: int = 0,
        snapshot_period: int = 60,
        span_execution: bool = True,
        coordinate_period: int | None = 300,
        exact: bool = True,
    ) -> None:
        if not flows:
            raise ConfigurationError("a region fleet needs at least one flow")
        names = [spec.name for spec in flows]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"fleet flow names must be unique, got {names}")
        # Controllers are stateful (adaptive gain memory, cooldowns); a
        # controller instance shared between two flows would couple them
        # silently. Require per-flow instances.
        seen_controllers: dict[int, str] = {}
        for spec in flows:
            for kind, config in (spec.controls or {}).items():
                owner = seen_controllers.setdefault(id(config.controller), spec.name)
                if owner != spec.name:
                    raise ConfigurationError(
                        f"flows {owner!r} and {spec.name!r} share a controller "
                        f"instance for {kind.name}; controllers are stateful — "
                        "build one per flow"
                    )
        self.seed = seed
        #: Workload-path exactness, applied to every flow uniformly (a
        #: fleet mixing exact and fast flows would produce a result
        #: that is neither comparable to exact baselines nor honestly
        #: flagged as approximate).
        self.exact = bool(exact)
        self.region = RegionContext(limits=limits)
        self.engine = SimulationEngine(span_execution=span_execution)
        self.managers: dict[str, FlowElasticityManager] = {}
        for spec in flows:
            # Name-derived seeds: adding/removing/reordering flows never
            # reshuffles the randomness of the others (the same contract
            # the scenario runner gives sweeps).
            flow_seed = derive_scenario_seed(seed, spec.name)
            share_bounds = (
                dict(spec.share_bounds)
                if spec.share_bounds is not None
                else self._default_share_bounds(spec, len(flows))
            )
            self.managers[spec.name] = FlowElasticityManager(
                workload=spec.workload,
                capacities=spec.capacities,
                controls=spec.controls,
                seed=flow_seed,
                snapshot_period=snapshot_period,
                share_bounds=share_bounds,
                chaos=spec.chaos,
                kinesis=spec.kinesis,
                storm=spec.storm,
                ec2=spec.ec2,
                dynamodb=spec.dynamodb,
                engine=self.engine,
                region=self.region,
                flow_id=spec.name,
                coordinated=coordinate_period is not None,
                exact=self.exact,
            )
        # One executor runs every flow's data path (the managers do not
        # register their pipelines on a shared engine).
        self.engine.add_component(
            FleetSpanExecutor(
                [(spec.name, self.managers[spec.name]._pipeline) for spec in flows],
                engine=self.engine,
                checkers={
                    spec.name: checker
                    for spec in flows
                    if (checker := self.managers[spec.name].invariant_checker)
                    is not None
                },
            )
        )
        # Group components by phase (data path, auditors, injectors) so
        # cross-flow fault visibility is identical in span and per-tick
        # execution; the stable sort keeps each flow's internal order.
        self.engine.sort_components(
            lambda component: _COMPONENT_PHASE.get(type(component), 3)
        )
        self.coordinator: FleetCoordinator | None = None
        if coordinate_period is not None:
            self.coordinator = FleetCoordinator(
                self.managers, self.region, period=coordinate_period
            )
            # Registered last: at coincident boundaries the coordinator
            # observes the flows' post-actuation state.
            self.engine.every(
                coordinate_period, self.coordinator.coordinate, name="fleet.coordinator"
            )

    def _default_share_bounds(
        self, spec: FleetFlowSpec, n_flows: int
    ) -> dict[LayerKind, int]:
        """Equal split of the account limits, floored at the flow's
        initial capacities (the starting state must be inside its own
        grant)."""
        limits = self.region.limits
        capacities = spec.capacities or ServiceCapacities()
        initial = {
            LayerKind.INGESTION: capacities.shards,
            LayerKind.ANALYTICS: capacities.vms,
            LayerKind.STORAGE: capacities.write_units,
        }
        return {
            kind: max(units, limits.limit(LAYER_RESOURCE[kind]) // n_flows)
            for kind, units in initial.items()
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_seconds: int) -> FleetRunResult:
        """Advance the shared engine; collect every flow's result."""
        started = perf_counter()
        for manager in self.managers.values():
            manager._reserve_run(duration_seconds)
        self.engine.run(duration_seconds)
        wall_seconds = perf_counter() - started
        return FleetRunResult(
            duration_seconds=self.engine.clock.now,
            flows={
                flow_id: manager._build_result(
                    coordination=self.coordinator.records if self.coordinator else ()
                )
                for flow_id, manager in self.managers.items()
            },
            region=self.region,
            coordinator=self.coordinator,
            wall_seconds=wall_seconds,
            exact=self.exact,
            flow_wall_seconds=(
                dict(self.engine.profiler.flow_seconds)
                if self.engine.profiler is not None
                else {}
            ),
        )


# ----------------------------------------------------------------------
# Process-parallel fleet sweeps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetScenarioSpec:
    """One picklable fleet case: a whole region fleet run.

    Everything :meth:`build` needs to compile a
    :class:`RegionFleetManager`, plus the horizon to run it for. The
    spec must stay picklable (its flows, chaos schedules and
    controllers are), because :func:`sweep_fleet_scenarios` ships specs
    to worker processes.
    """

    name: str
    flows: tuple[FleetFlowSpec, ...]
    limits: RegionLimits | None = None
    duration: int = 7200
    coordinate_period: int | None = 300
    exact: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fleet scenario name must be non-empty")
        if self.duration <= 0:
            raise ConfigurationError("fleet scenario duration must be positive")
        # Tuples keep the frozen spec hashable-by-structure and stop
        # callers mutating a shared flow list between sweep cases.
        object.__setattr__(self, "flows", tuple(self.flows))

    def build(self, seed: int) -> RegionFleetManager:
        """Compile into a ready-to-run fleet seeded with ``seed``.

        The flows are deep-copied first, so every build starts from
        fresh controller and chaos state — the state a sweep worker
        gets from unpickling. Without the copy, a serial sweep would
        mutate the caller's controllers and diverge from the parallel
        run on the second use of a spec.
        """
        return RegionFleetManager(
            list(deepcopy(self.flows)),
            limits=self.limits,
            seed=seed,
            coordinate_period=self.coordinate_period,
            exact=self.exact,
        )


def run_fleet_scenario(spec: FleetScenarioSpec, seed: int):
    """Run one fleet scenario; return its pickle-stable scorecard.

    Module-level on purpose: sweep workers pickle this function by
    reference.
    """
    from repro.analysis.scorecard import FleetScorecard

    result = spec.build(seed).run(spec.duration)
    return FleetScorecard.from_fleet_result(spec.name, result, seed=seed)


def sweep_fleet_scenarios(
    specs: "Sequence[FleetScenarioSpec]", base_seed: int = 0, jobs: int = 1
):
    """Run many fleet scenarios, optionally across worker processes.

    The process-parallel counterpart of :meth:`RegionFleetManager.run`
    for policy sweeps: each scenario is a whole fleet run with a seed
    derived from ``base_seed`` and the scenario *name* (the scenario
    runner's contract), fanned over the runner's pinned-context pool.
    Returns ``{name: FleetScorecard}`` in submission order; any
    ``jobs`` value yields byte-identical scorecards.
    """
    from repro.analysis.runner import SweepCase, run_scenarios_dict

    cases = [
        SweepCase(
            name=spec.name,
            fn=run_fleet_scenario,
            kwargs=dict(spec=spec, seed=derive_scenario_seed(base_seed, spec.name)),
        )
        for spec in specs
    ]
    return run_scenarios_dict(cases, jobs=jobs)
