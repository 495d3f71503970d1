"""The benchmark's five workloads, each a pure function of its seed.

Every workload is built from ``(seed, horizon)`` only, so the same seed
always yields the same inputs and the program sees nothing but the
generated spec. The five cover the axes the simulator's optimisations
move along: the bit-exact versus the approximate workload path, an
idle versus a congested data path, one flow versus a contended fleet,
and one scenario shape versus the whole catalog. README.md records why
each one exists and which per-layer metric it should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Simulated seconds of the untimed warm-up run on a separate instance.
WARMUP_SECONDS = 600

#: Flows in the ``fleet-16`` region.
FLEET_FLOWS = 16


@dataclass(frozen=True)
class Workload:
    """One named benchmark input.

    ``kind`` selects how the built object runs: ``flow`` and ``fleet``
    are a manager with ``run(horizon)``; ``catalog`` is a list of
    scenarios run by ``run_catalog``. ``flows`` is the number of
    operations one run attempts (flows, or scenarios for the catalog).
    ``exact`` says whether it runs the bit-exact workload path, which
    picks the host-speed probe's kernel (``probe.py``).
    """

    name: str
    kind: str
    horizon: int
    flows: int
    exact: bool
    build: Callable[[int, int], object]


def _flow_exact(seed: int, horizon: int, *, exact: bool = True):
    from repro import FlowBuilder
    from repro.simulation import derive_rng
    from repro.workload import BurstyRate, DiurnalRate

    clicks = BurstyRate(
        DiurnalRate(mean=1500.0, amplitude=1100.0, peak_hour=20.0),
        derive_rng(seed, "bench.bursts"),
        horizon=horizon,
        bursts_per_hour=1.0,
        multiplier=1.8,
        duration_seconds=300,
    )
    return (
        FlowBuilder("bench-flow", seed=seed)
        .workload(clicks)
        .reads(DiurnalRate(mean=60.0, amplitude=40.0, peak_hour=20.0), read_units=100,
               style="adaptive")
        .control_all(style="adaptive", reference=60.0, period=60)
        .exact(exact)
        .build()
    )


def _flow_fast(seed: int, horizon: int):
    return _flow_exact(seed, horizon, exact=False)


def _flow_congested(seed: int, horizon: int):
    from repro import ChaosSchedule, FaultKind, FaultSpec, FlowBuilder, LayerKind
    from repro.cloud.dynamodb import DynamoDBConfig
    from repro.cloud.storm import StormConfig
    from repro.simulation import derive_rng
    from repro.workload import NoisyRate, SinusoidalRate

    d = horizon
    clicks = NoisyRate(
        SinusoidalRate(mean=2300.0, amplitude=1000.0, period=4 * 3600),
        derive_rng(seed, "bench.noise"),
        horizon=horizon,
        sigma=0.2,
    )
    faults = ChaosSchedule(faults=(
        FaultSpec(FaultKind.SHARD_BROWNOUT, start=d // 8, duration=d // 16, intensity=0.5),
        FaultSpec(FaultKind.THROTTLE_STORM, start=d // 4, duration=d // 16, intensity=0.6),
        FaultSpec(FaultKind.REBALANCE_FAIL, start=3 * d // 8, duration=d // 32),
        FaultSpec(FaultKind.UPDATE_REJECT, start=d // 2, duration=d // 16),
        FaultSpec(FaultKind.WORKER_CRASH, start=5 * d // 8, intensity=1.0),
    ), seed=seed, name="bench-congested")
    return (
        FlowBuilder("bench-congested", seed=seed)
        .analytics(vms=2, storm=StormConfig(records_per_vm_per_second=1000))
        .storage(write_units=300, config=DynamoDBConfig(burst_seconds=10))
        .workload(clicks)
        .control_all(style="adaptive", reference=60.0, period=60)
        .share_bounds({LayerKind.INGESTION: 3, LayerKind.ANALYTICS: 3, LayerKind.STORAGE: 300})
        .chaos(faults)
        .exact(False)
        .build()
    )


def _fleet_16(seed: int, horizon: int):
    from repro import FleetFlowSpec, LayerControlConfig, LayerKind, RegionFleetManager
    from repro.cloud.region import RegionLimits
    from repro.cloud.storm import StormConfig
    from repro.core.config import default_adaptive_controller
    from repro.workload import SinusoidalRate

    n = FLEET_FLOWS
    period = 6 * 3600  # phases staggered across one cycle
    flows = [
        FleetFlowSpec(
            name=f"flow{i:02d}",
            workload=SinusoidalRate(
                mean=1800.0 + 50.0 * i, amplitude=1200.0, period=period, phase=(period // n) * i
            ),
            controls={
                kind: LayerControlConfig(controller=default_adaptive_controller(kind), period=60)
                for kind in LayerKind
            },
            storm=StormConfig(records_per_vm_per_second=800),
        )
        for i in range(n)
    ]
    limits = RegionLimits(
        max_instances=4 * n,
        max_total_shards=4 * n,
        max_total_write_units=900 * n,
        contention_threshold=0.7,
        contention_slope=0.3,
    )
    return RegionFleetManager(
        flows, limits=limits, seed=seed, exact=False, coordinate_period=300
    )


def _catalog_smoke(seed: int, horizon: int):
    from repro.scenarios import Scenario, catalog

    scenarios = list(catalog("smoke", seed=seed).values())
    if horizon == scenarios[0].duration:
        return scenarios
    # Shorter runs (the warm-up, the self-tests) rescale each scenario's
    # fault windows with the horizon, so every fault still fires.
    rescaled = []
    for scenario in scenarios:
        data = scenario.to_dict()
        scale = horizon / data["duration"]
        data["duration"] = horizon
        data["control_period"] = min(data["control_period"], horizon)
        for fault in (data["chaos"] or {}).get("faults", ()):
            fault["start"] = int(fault["start"] * scale)
            if fault["duration"]:
                fault["duration"] = max(1, int(fault["duration"] * scale))
        rescaled.append(Scenario.from_dict(data))
    return rescaled


#: In ``BENCHMARK.json`` order; README.md says why each one exists.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("flow-exact", "flow", 24 * 3600, 1, True, _flow_exact),
        Workload("flow-fast", "flow", 72 * 3600, 1, False, _flow_fast),
        Workload("flow-congested", "flow", 72 * 3600, 1, False, _flow_congested),
        Workload("fleet-16", "fleet", 6 * 3600, FLEET_FLOWS, False, _fleet_16),
        Workload("catalog-smoke", "catalog", 2 * 3600, 9, True, _catalog_smoke),
    )
}
