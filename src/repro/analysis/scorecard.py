"""Run scorecards: a finished run's health digest and regression gate.

A :class:`RunScorecard` condenses one managed run into the numbers a
maintainer (or CI) needs to decide "did this change make the manager
worse?": per-layer SLO violation rates, cost, per-fault recovery time
(MTTR), actuation / clamp / retry / breaker counts, causal-chain
closure, and throughput. Everything except the wall-clock fields is
deterministic for a given seed, so scorecards can be committed as
baselines and diffed — tight tolerances, both directions — by the
``repro scorecard --check`` CI gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.metrics import slo_violation_rate
from repro.chaos.mttr import recovery_times
from repro.chaos.schedule import ChaosSchedule, FaultKind, FaultSpec
from repro.control.actuators import RetryingActuator
from repro.control.bounded import BoundedActuator
from repro.core.errors import ConfigurationError
from repro.core.flow import LayerKind

#: Fields whose values depend on the machine, not the simulation; they
#: are reported for information but never gated on.
WALL_CLOCK_FIELDS = frozenset(
    {"wall_seconds", "ticks_per_second", "flow_wall_seconds"}
)


def _unwrap(actuator):
    """The :class:`RetryingActuator` inside a possibly-bounded stack."""
    if isinstance(actuator, BoundedActuator):
        actuator = actuator.inner
    return actuator if isinstance(actuator, RetryingActuator) else None


@dataclass(frozen=True)
class RunScorecard:
    """One run's gateable health numbers (see module docstring)."""

    name: str
    seed: int
    duration_seconds: int
    #: Per-layer % of samples with utilization above the SLO band.
    slo_violation_pct: dict[str, float] = field(default_factory=dict)
    cost_by_layer: dict[str, float] = field(default_factory=dict)
    total_cost: float = 0.0
    #: Per injected fault (``kind@time``): recovery seconds, or None if
    #: the layer never settled back inside the run.
    mttr_by_fault: dict[str, float | None] = field(default_factory=dict)
    #: Per control loop: invocations that changed capacity.
    actuations: dict[str, int] = field(default_factory=dict)
    #: Per control loop: invocations where bounds overrode the command.
    clamps: dict[str, int] = field(default_factory=dict)
    decisions: dict[str, int] = field(default_factory=dict)
    retry_attempts: int = 0
    breaker_openings: int = 0
    causal_chains: int = 0
    causal_chains_closed: int = 0
    dropped_records: int = 0
    dropped_writes: int = 0
    invariants_ok: bool = True
    #: Whether the run used the bit-exact workload path. Approximate
    #: (``exact=False``) cards refuse to compare against exact ones.
    exact: bool = True
    #: Wall-clock fields — informational, excluded from the gate.
    wall_seconds: float = 0.0
    ticks_per_second: float = 0.0

    @classmethod
    def from_result(
        cls, name: str, result, *, slo_band: float = 85.0, seed: int = 0
    ) -> "RunScorecard":
        """Condense a :class:`FlowRunResult` into a scorecard."""
        slo: dict[str, float] = {}
        for kind in LayerKind:
            trace = result.utilization_trace(kind)
            if len(trace):
                slo[kind.name.lower()] = round(
                    100.0 * slo_violation_rate(trace, "<=", slo_band), 6
                )
        mttr: dict[str, float | None] = {}
        if result.chaos_events:
            for sample in recovery_times(result):
                key = f"{sample.fault}@{sample.injected_at}"
                mttr[key] = (
                    float(sample.recovery_seconds) if sample.recovered else None
                )
        loops = dict(result.loops)
        all_loops = list(loops.values())
        if result.read_loop is not None:
            all_loops.append(result.read_loop)
        actuations = {loop.name: loop.actions_taken for loop in all_loops}
        clamps = {
            loop.name: sum(
                1
                for r in loop.records
                if r.capacity_applied != r.capacity_requested
            )
            for loop in all_loops
        }
        decisions = {loop.name: len(loop.records) for loop in all_loops}
        retry_attempts = 0
        breaker_openings = 0
        for loop in all_loops:
            retrying = _unwrap(loop.actuator)
            if retrying is not None:
                retry_attempts += retrying.failed_attempts
                breaker_openings += retrying.total_openings
        chains = chains_closed = 0
        if result.recorder is not None:
            from repro.observability.causal import decision_chains, fault_chains

            all_chains = decision_chains(result.recorder) + fault_chains(result)
            chains = len(all_chains)
            # The run's end is the closure horizon: a capacity
            # transition scheduled to complete after it is in flight at
            # shutdown, not a broken chain.
            chains_closed = sum(
                1 for c in all_chains if c.closed(horizon=result.duration_seconds)
            )
        wall = float(result.wall_seconds)
        return cls(
            name=name,
            seed=seed,
            duration_seconds=result.duration_seconds,
            slo_violation_pct=slo,
            cost_by_layer={
                layer: round(cost, 9)
                for layer, cost in result.cost_by_layer.items()
            },
            total_cost=round(result.total_cost, 9),
            mttr_by_fault=mttr,
            actuations=actuations,
            clamps=clamps,
            decisions=decisions,
            retry_attempts=retry_attempts,
            breaker_openings=breaker_openings,
            causal_chains=chains,
            causal_chains_closed=chains_closed,
            dropped_records=result.dropped_records,
            dropped_writes=result.dropped_writes,
            invariants_ok=(result.invariants.ok if result.invariants else True),
            exact=bool(getattr(result, "exact", True)),
            wall_seconds=round(wall, 4),
            ticks_per_second=(
                round(result.duration_seconds / wall, 1) if wall > 0 else 0.0
            ),
        )

    def without_wall_clock(self) -> "RunScorecard":
        """A copy with the machine-dependent fields zeroed.

        The catalog matrix commits cards byte-for-byte, so everything
        in the file must be deterministic; zeroing (rather than
        omitting) keeps the schema identical to live cards.
        """
        import dataclasses

        return dataclasses.replace(self, wall_seconds=0.0, ticks_per_second=0.0)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_seconds": self.duration_seconds,
            "slo_violation_pct": dict(sorted(self.slo_violation_pct.items())),
            "cost_by_layer": dict(sorted(self.cost_by_layer.items())),
            "total_cost": self.total_cost,
            "mttr_by_fault": dict(sorted(self.mttr_by_fault.items())),
            "actuations": dict(sorted(self.actuations.items())),
            "clamps": dict(sorted(self.clamps.items())),
            "decisions": dict(sorted(self.decisions.items())),
            "retry_attempts": self.retry_attempts,
            "breaker_openings": self.breaker_openings,
            "causal_chains": self.causal_chains,
            "causal_chains_closed": self.causal_chains_closed,
            "dropped_records": self.dropped_records,
            "dropped_writes": self.dropped_writes,
            "invariants_ok": self.invariants_ok,
            "exact": self.exact,
            "wall_seconds": self.wall_seconds,
            "ticks_per_second": self.ticks_per_second,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RunScorecard":
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            duration_seconds=int(data["duration_seconds"]),
            slo_violation_pct={
                str(k): float(v) for k, v in data.get("slo_violation_pct", {}).items()
            },
            cost_by_layer={
                str(k): float(v) for k, v in data.get("cost_by_layer", {}).items()
            },
            total_cost=float(data.get("total_cost", 0.0)),
            mttr_by_fault={
                str(k): (None if v is None else float(v))
                for k, v in data.get("mttr_by_fault", {}).items()
            },
            actuations={str(k): int(v) for k, v in data.get("actuations", {}).items()},
            clamps={str(k): int(v) for k, v in data.get("clamps", {}).items()},
            decisions={str(k): int(v) for k, v in data.get("decisions", {}).items()},
            retry_attempts=int(data.get("retry_attempts", 0)),
            breaker_openings=int(data.get("breaker_openings", 0)),
            causal_chains=int(data.get("causal_chains", 0)),
            causal_chains_closed=int(data.get("causal_chains_closed", 0)),
            dropped_records=int(data.get("dropped_records", 0)),
            dropped_writes=int(data.get("dropped_writes", 0)),
            invariants_ok=bool(data.get("invariants_ok", True)),
            exact=bool(data.get("exact", True)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            ticks_per_second=float(data.get("ticks_per_second", 0.0)),
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunScorecard":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    # The regression gate
    # ------------------------------------------------------------------
    def compare(self, baseline: "RunScorecard", rel_tol: float = 1e-9) -> list[str]:
        """Drift messages vs a committed baseline; empty means green.

        Every deterministic field is compared with a tight relative
        tolerance, and drift in *either* direction fails — a run that
        got cheaper or faster-settling without the baseline being
        regenerated is just as suspicious as one that regressed.
        The union of both cards' keys is walked, so a field present on
        only one side (schema additions, hand-edited baselines) is
        drift, not silence. Wall-clock fields
        (:data:`WALL_CLOCK_FIELDS`) are skipped.

        Raises :class:`ConfigurationError` when the cards' workload
        exactness differs: the approximate fast path is statistically
        equivalent but not bit-comparable to the exact reference, so a
        fast card gating (or being gated by) an exact baseline is
        always a configuration mistake, never a tolerable drift.
        """
        _require_same_exactness(self, baseline)
        drifts: list[str] = []
        mine, theirs = self.to_dict(), baseline.to_dict()
        for key in sorted(set(theirs) | set(mine)):
            if key in WALL_CLOCK_FIELDS:
                continue
            expected = theirs.get(key)
            actual = mine.get(key)
            if isinstance(expected, dict) or isinstance(actual, dict):
                expected = expected if isinstance(expected, dict) else {}
                actual = actual if isinstance(actual, dict) else {}
                for sub in sorted(set(expected) | set(actual)):
                    want, got = expected.get(sub), actual.get(sub)
                    if not _close(want, got, rel_tol):
                        drifts.append(f"{key}.{sub}: baseline {want!r}, got {got!r}")
            elif not _close(expected, actual, rel_tol):
                drifts.append(f"{key}: baseline {expected!r}, got {actual!r}")
        return drifts

    def summary(self) -> str:
        """One-screen text rendering (the CLI's default output)."""
        exactness = "" if self.exact else ", APPROXIMATE fast workload path"
        lines = [
            f"scorecard {self.name} (seed {self.seed}, "
            f"{self.duration_seconds}s simulated{exactness})",
            f"  cost            ${self.total_cost:.4f}  "
            + " ".join(f"{k}=${v:.4f}" for k, v in sorted(self.cost_by_layer.items())),
        ]
        if self.slo_violation_pct:
            lines.append(
                "  slo violations  "
                + "  ".join(
                    f"{k}={v:.2f}%" for k, v in sorted(self.slo_violation_pct.items())
                )
            )
        if self.mttr_by_fault:
            lines.append("  mttr per fault:")
            for fault, seconds in sorted(self.mttr_by_fault.items()):
                status = f"{seconds:.0f}s" if seconds is not None else "NOT RECOVERED"
                lines.append(f"    {fault:<28} {status}")
        lines.append(
            "  control         "
            + "  ".join(
                f"{k}={self.actuations[k]}/{self.decisions.get(k, 0)}"
                for k in sorted(self.actuations)
            )
            + "  (acted/decisions)"
        )
        lines.append(
            f"  faults absorbed retries={self.retry_attempts} "
            f"breaker_openings={self.breaker_openings} "
            f"clamps={sum(self.clamps.values())}"
        )
        if self.causal_chains:
            lines.append(
                f"  causal chains   {self.causal_chains_closed}/{self.causal_chains} closed"
            )
        lines.append(
            f"  dropped         records={self.dropped_records} writes={self.dropped_writes}"
            f"  invariants={'ok' if self.invariants_ok else 'VIOLATED'}"
        )
        if self.wall_seconds:  # zeroed on machine-independent cards
            lines.append(
                f"  throughput      {self.ticks_per_second:.0f} ticks/s "
                f"({self.wall_seconds:.2f}s wall; informational)"
            )
        return "\n".join(lines)


def _require_same_exactness(mine, baseline) -> None:
    """Refuse to compare cards from different workload paths."""
    if bool(mine.exact) != bool(baseline.exact):
        raise ConfigurationError(
            f"cannot compare scorecard {mine.name!r} (exact={mine.exact}) "
            f"against baseline {baseline.name!r} (exact={baseline.exact}): "
            "the approximate fast path is not bit-comparable to the exact "
            "reference — regenerate the baseline on the same workload path"
        )


def _close(expected, actual, rel_tol: float) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:
            return expected is actual
        return math.isclose(float(expected), float(actual), rel_tol=rel_tol, abs_tol=1e-9)
    return expected == actual


@dataclass(frozen=True)
class FleetScorecard:
    """A multi-flow region run's gateable digest.

    One :class:`RunScorecard` per flow plus the fleet-level numbers a
    single flow cannot see: region admission denials, coordinator
    activity, and the summed cost. Duck-types the single-run card's
    gate surface (``summary`` / ``compare`` / ``to_json`` /
    ``from_json_file``) so the CLI gate treats both uniformly.
    """

    name: str
    seed: int
    duration_seconds: int
    flows: dict[str, RunScorecard] = field(default_factory=dict)
    total_cost: float = 0.0
    #: ``{flow_id: {resource: denied_requests}}`` from the region.
    denials: dict[str, dict[str, int]] = field(default_factory=dict)
    coordinator_passes: int = 0
    cap_retargets: int = 0
    #: Whether the fleet ran on the bit-exact workload path.
    exact: bool = True
    #: Wall-clock — informational, excluded from the gate.
    wall_seconds: float = 0.0
    #: Per-flow wall-clock attribution from the fleet executor's
    #: profiler hook (empty when profiling was off) — informational,
    #: excluded from the gate like every ``WALL_CLOCK_FIELDS`` entry.
    flow_wall_seconds: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_fleet_result(cls, name: str, result, *, seed: int = 0) -> "FleetScorecard":
        """Condense a :class:`~repro.core.fleet.FleetRunResult`."""
        coordinator = result.coordinator
        return cls(
            name=name,
            seed=seed,
            duration_seconds=result.duration_seconds,
            flows={
                flow_id: RunScorecard.from_result(flow_id, flow_result, seed=seed)
                for flow_id, flow_result in result.flows.items()
            },
            total_cost=round(result.total_cost, 9),
            denials=result.denials_by_flow(),
            coordinator_passes=len(coordinator.records) if coordinator else 0,
            cap_retargets=coordinator.retargets if coordinator else 0,
            exact=bool(getattr(result, "exact", True)),
            wall_seconds=round(float(result.wall_seconds), 4),
            flow_wall_seconds={
                flow_id: round(float(seconds), 4)
                for flow_id, seconds in sorted(
                    getattr(result, "flow_wall_seconds", {}).items()
                )
            },
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "fleet",
            "name": self.name,
            "seed": self.seed,
            "duration_seconds": self.duration_seconds,
            "total_cost": self.total_cost,
            "denials": {
                flow_id: dict(sorted(counts.items()))
                for flow_id, counts in sorted(self.denials.items())
            },
            "coordinator_passes": self.coordinator_passes,
            "cap_retargets": self.cap_retargets,
            "exact": self.exact,
            "flows": {
                flow_id: card.to_dict() for flow_id, card in sorted(self.flows.items())
            },
            "wall_seconds": self.wall_seconds,
            "flow_wall_seconds": dict(sorted(self.flow_wall_seconds.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FleetScorecard":
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            duration_seconds=int(data["duration_seconds"]),
            flows={
                str(flow_id): RunScorecard.from_dict(card)
                for flow_id, card in data.get("flows", {}).items()
            },
            total_cost=float(data.get("total_cost", 0.0)),
            denials={
                str(flow_id): {str(k): int(v) for k, v in counts.items()}
                for flow_id, counts in data.get("denials", {}).items()
            },
            coordinator_passes=int(data.get("coordinator_passes", 0)),
            cap_retargets=int(data.get("cap_retargets", 0)),
            exact=bool(data.get("exact", True)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            flow_wall_seconds={
                str(flow_id): float(seconds)
                for flow_id, seconds in data.get("flow_wall_seconds", {}).items()
            },
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "FleetScorecard":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    # The regression gate
    # ------------------------------------------------------------------
    def compare(self, baseline: "FleetScorecard", rel_tol: float = 1e-9) -> list[str]:
        """Drift messages vs a committed baseline; empty means green.

        Fleet-level fields first, then each flow's card through the
        single-run comparison with the flow id prefixed. A flow present
        on only one side is drift, not silence. Mixed exact/approximate
        comparisons raise, as for :meth:`RunScorecard.compare`.
        """
        _require_same_exactness(self, baseline)
        drifts: list[str] = []
        for key in ("duration_seconds", "total_cost", "coordinator_passes", "cap_retargets"):
            want, got = getattr(baseline, key), getattr(self, key)
            if not _close(want, got, rel_tol):
                drifts.append(f"{key}: baseline {want!r}, got {got!r}")
        flow_ids = sorted(set(baseline.denials) | set(self.denials))
        for flow_id in flow_ids:
            want_d, got_d = baseline.denials.get(flow_id, {}), self.denials.get(flow_id, {})
            for resource in sorted(set(want_d) | set(got_d)):
                want, got = want_d.get(resource), got_d.get(resource)
                if want != got:
                    drifts.append(
                        f"denials.{flow_id}.{resource}: baseline {want!r}, got {got!r}"
                    )
        for flow_id in sorted(set(baseline.flows) | set(self.flows)):
            mine = self.flows.get(flow_id)
            theirs = baseline.flows.get(flow_id)
            if mine is None or theirs is None:
                drifts.append(
                    f"flows.{flow_id}: baseline "
                    f"{'present' if theirs else 'absent'}, got "
                    f"{'present' if mine else 'absent'}"
                )
                continue
            drifts.extend(f"{flow_id}.{d}" for d in mine.compare(theirs, rel_tol))
        return drifts

    def summary(self) -> str:
        """One-screen text rendering (the CLI's default output)."""
        denied = sum(sum(counts.values()) for counts in self.denials.values())
        exactness = "" if self.exact else ", APPROXIMATE fast workload path"
        lines = [
            f"fleet scorecard {self.name} (seed {self.seed}, "
            f"{len(self.flows)} flows, {self.duration_seconds}s simulated{exactness})",
            f"  total cost      ${self.total_cost:.4f}",
            f"  region          denials={denied} "
            f"coordinator_passes={self.coordinator_passes} "
            f"cap_retargets={self.cap_retargets}",
        ]
        for flow_id, card in sorted(self.flows.items()):
            wall = (
                f" wall={self.flow_wall_seconds[flow_id]:.3f}s"
                if flow_id in self.flow_wall_seconds
                else ""
            )
            lines.append(
                f"  {flow_id}: ${card.total_cost:.4f} "
                f"acted={sum(card.actuations.values())} "
                f"clamps={sum(card.clamps.values())} "
                f"retries={card.retry_attempts} "
                f"breakers={card.breaker_openings} "
                f"invariants={'ok' if card.invariants_ok else 'VIOLATED'}"
                f"{wall}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Smoke scenarios (the CI gate's workloads)
# ----------------------------------------------------------------------

#: Simulated duration of each smoke scenario (short enough for CI).
SMOKE_DURATION = 2 * 3600
SMOKE_SEED = 7

#: The gated smoke scenarios; see :func:`smoke_spec`.
SMOKE_SCENARIOS = ("steady", "chaos", "fleet")


def smoke_spec(name: str, *, seed: int = SMOKE_SEED, duration: int = SMOKE_DURATION):
    """One named smoke scenario as a spec.

    ``steady`` is a sinusoidal day on the fully-controlled flow and
    ``chaos`` the same flow under one fault per elastic layer, both a
    :class:`~repro.scenarios.spec.Scenario`; ``fleet`` is three flows
    squeezed into one region, a
    :class:`~repro.core.fleet.FleetScenarioSpec`. The seed of a fleet
    run is passed at run time, not carried by its spec.
    """
    # Imported here, not at module top: repro.scenarios imports this
    # module — a cycle at import time but not at call time.
    from repro.scenarios.spec import PatternSpec, Scenario

    if name not in SMOKE_SCENARIOS:
        raise ConfigurationError(
            f"unknown scorecard scenario {name!r}; one of: {', '.join(SMOKE_SCENARIOS)}"
        )
    if name == "fleet":
        return _fleet_smoke_spec(duration)
    # ``phase=duration // 4`` puts the sinusoid's trough at t=0 and its
    # peak mid-run (t=duration/2), so the flow ramps up gently and the
    # chaos faults land on the loaded system, not an idle one.
    workload = PatternSpec("sinusoid", {
        "mean": 1500.0, "amplitude": 1200.0, "period": duration, "phase": duration // 4,
    })
    chaos = None
    if name == "chaos":
        # One fault per elastic layer, scheduled into the high-load
        # phase so every fault produces an observable symptom (a
        # throttle episode or a forced rebalance) and hence a closeable
        # causal chain — the chain-closure count in the scorecard is a
        # real gate, not vacuously open. Worker-crash closure needs a
        # fixed-parallelism topology (only topology runs publish crash
        # rebalances) and is exercised by the tracing test suite instead.
        chaos = ChaosSchedule(
            faults=(
                FaultSpec(FaultKind.SHARD_BROWNOUT, start=3 * duration // 8,
                          duration=duration // 12, intensity=0.7),
                FaultSpec(FaultKind.REBALANCE_FAIL, start=duration // 2,
                          duration=duration // 24),
                FaultSpec(FaultKind.THROTTLE_STORM, start=2 * duration // 3,
                          duration=duration // 12, intensity=0.9),
            ),
            seed=seed,
            name="scorecard-smoke",
        )
    return Scenario(name=name, workload=workload, duration=duration, seed=seed, chaos=chaos)


def _fleet_smoke_spec(duration: int):
    """The fleet smoke scenario: 3 flows squeezed into one region.

    Three sinusoidal flows (staggered means) share an account sized so
    the pool is genuinely contended at peak: the flows start with
    overcommitted share bounds (each believes it may claim most of the
    account), so region admission denials surface early, and the
    coordinator then arbitrates the bounds down to a feasible split —
    the scorecard gates both mechanisms plus every flow's own health.
    """
    from repro.cloud.region import RegionLimits
    from repro.cloud.storm import StormConfig
    from repro.core.config import LayerControlConfig, default_adaptive_controller
    from repro.core.fleet import FleetFlowSpec, FleetScenarioSpec
    from repro.workload.generators import SinusoidalRate

    flows = [
        FleetFlowSpec(
            name=f"flow{i}",
            workload=SinusoidalRate(
                mean=1800.0 + 400.0 * i,
                amplitude=1400.0,
                period=duration,
                phase=duration // 4,
            ),
            controls={
                kind: LayerControlConfig(
                    controller=default_adaptive_controller(kind), period=60
                )
                for kind in LayerKind
            },
            share_bounds={
                LayerKind.INGESTION: 8,
                LayerKind.ANALYTICS: 8,
                LayerKind.STORAGE: 1200,
            },
            storm=StormConfig(records_per_vm_per_second=800),
        )
        for i in range(3)
    ]
    limits = RegionLimits(
        max_instances=10,
        max_total_shards=12,
        max_total_write_units=2400,
        contention_threshold=0.7,
        contention_slope=0.3,
    )
    return FleetScenarioSpec(name="fleet", flows=flows, limits=limits, duration=duration)


def run_smoke_scenario(
    name: str, *, seed: int = SMOKE_SEED, duration: int = SMOKE_DURATION
) -> "RunScorecard | FleetScorecard":
    """Run one named smoke scenario (see :func:`smoke_spec`) and score
    it: ``steady`` and ``chaos`` through
    :func:`~repro.scenarios.runner.run_scenario` (wall-clock fields
    zeroed), ``fleet`` through
    :func:`~repro.core.fleet.run_fleet_scenario`."""
    from repro.core.fleet import run_fleet_scenario
    from repro.scenarios.runner import run_scenario

    spec = smoke_spec(name, seed=seed, duration=duration)
    if name == "fleet":
        return run_fleet_scenario(spec, seed)
    return run_scenario(spec)
