"""Tests for multi-flow region fleets and the fleet coordinator.

Coverage: the 3-flow arbitration story (coordinator shifts per-flow
bounds under a shared-pool squeeze while every flow stays healthy),
region denials absorbed by the per-flow retry/breaker stack,
process-parallel fleet sweeps byte-identical to serial ones, and the
NSGA-II fleet share analyzer honoring budget and account-limit rows in
both its scalar and vectorized paths.
"""

import pickle

import pytest

from repro.analysis.runner import SweepCase, run_scenarios
from repro.cloud.region import RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, default_adaptive_controller
from repro.core.errors import ConfigurationError, OptimizationError
from repro.core.flow import LayerKind, clickstream_flow_spec
from repro.core.fleet import (
    COORDINATED_LAYERS,
    FleetFlowSpec,
    FleetScenarioSpec,
    RegionFleetManager,
    sweep_fleet_scenarios,
)
from repro.optimization.fleet_shares import (
    FLEET_LAYER_ORDER,
    FleetShareAnalyzer,
    FlowShareSpec,
)
from repro.optimization.share_analyzer import ShareConstraint
from repro.simulation.rng import derive_scenario_seed
from repro.workload.generators import SinusoidalRate


def _controls(reference=60.0):
    return {
        kind: LayerControlConfig(
            controller=default_adaptive_controller(kind, reference=reference),
            period=60,
        )
        for kind in LayerKind
    }


def _flow_specs(n=3, duration=7200, share_bounds=None):
    return [
        FleetFlowSpec(
            name=f"flow{i}",
            workload=SinusoidalRate(
                mean=1800.0 + 400.0 * i,
                amplitude=1400.0,
                period=duration,
                phase=duration // 4,
            ),
            controls=_controls(),
            share_bounds=dict(share_bounds) if share_bounds else None,
            storm=StormConfig(records_per_vm_per_second=800),
        )
        for i in range(n)
    ]


def _tight_limits():
    return RegionLimits(
        max_instances=10,
        max_total_shards=12,
        max_total_write_units=2400,
        contention_threshold=0.7,
        contention_slope=0.3,
    )


def _fleet_digest(seed, span_execution=True, jobs_marker=None):
    """A picklable fleet-run digest (module-level: sweep workers pickle
    the function, and the digest must be bytes-comparable)."""
    fleet = RegionFleetManager(
        _flow_specs(),
        limits=_tight_limits(),
        seed=seed,
        span_execution=span_execution,
        coordinate_period=300,
    )
    result = fleet.run(7200)
    return {
        "costs": {fid: repr(r.total_cost) for fid, r in result.flows.items()},
        "denials": result.denials_by_flow(),
        "grants": [
            (rec.time, {f: dict(g) for f, g in sorted(rec.grants.items())})
            for rec in result.coordinator.records
        ],
        "drops": {
            fid: (r.dropped_records, r.dropped_writes)
            for fid, r in result.flows.items()
        },
    }


class TestFleetValidation:
    def test_needs_at_least_one_flow(self):
        with pytest.raises(ConfigurationError, match="at least one flow"):
            RegionFleetManager([])

    def test_duplicate_names_rejected(self):
        specs = _flow_specs(2)
        specs[1] = FleetFlowSpec(
            name="flow0", workload=specs[1].workload, controls=_controls()
        )
        with pytest.raises(ConfigurationError, match="unique"):
            RegionFleetManager(specs)

    def test_shared_controller_instance_rejected(self):
        shared = _controls()
        specs = [
            FleetFlowSpec(
                name=f"flow{i}",
                workload=SinusoidalRate(mean=100.0, amplitude=10.0, period=3600),
                controls=shared,
            )
            for i in range(2)
        ]
        with pytest.raises(ConfigurationError, match="share a controller"):
            RegionFleetManager(specs)

    def test_snapshot_period_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="snapshot_period .* got 0"):
            RegionFleetManager(_flow_specs(2), snapshot_period=0)

    def test_empty_flow_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            FleetFlowSpec(
                name="", workload=SinusoidalRate(mean=1.0, amplitude=0.0, period=60)
            )

    def test_per_flow_seeds_are_name_derived(self):
        fleet = RegionFleetManager(_flow_specs(2), coordinate_period=None)
        for name, manager in fleet.managers.items():
            assert manager.seed == derive_scenario_seed(0, name)


class TestArbitrationUnderSqueeze:
    """The acceptance demo: 3 flows, tight account, live arbitration."""

    @pytest.fixture(scope="class")
    def run(self):
        fleet = RegionFleetManager(
            _flow_specs(),
            limits=_tight_limits(),
            seed=7,
            coordinate_period=300,
        )
        return fleet, fleet.run(7200)

    def test_runs_in_span_mode(self, run):
        fleet, _result = run
        assert fleet.engine.last_run_used_spans

    def test_coordinator_shifts_bounds(self, run):
        _fleet, result = run
        coordinator = result.coordinator
        assert coordinator.retargets > 0
        for kind in COORDINATED_LAYERS:
            trajectory = coordinator.bound_trajectory("flow2", kind)
            assert len(trajectory) == len(coordinator.records)
        # The arbitration is real: at least one layer's caps move over
        # the run rather than staying at the initial equal split.
        moved = any(
            len({cap for _t, cap in coordinator.bound_trajectory(fid, kind)}) > 1
            for fid in result.flows
            for kind in COORDINATED_LAYERS
        )
        assert moved

    def test_grants_respect_account_limits(self, run):
        fleet, result = run
        limits = fleet.region.limits
        caps = {
            LayerKind.INGESTION: limits.max_total_shards,
            LayerKind.ANALYTICS: limits.max_instances,
            LayerKind.STORAGE: limits.max_total_write_units,
        }
        floors = {
            LayerKind.INGESTION: 1,
            LayerKind.ANALYTICS: 1,
            LayerKind.STORAGE: 1,
        }
        for record in result.coordinator.records:
            for kind in COORDINATED_LAYERS:
                granted = sum(
                    grants[kind] for grants in record.grants.values() if kind in grants
                )
                # Proportional split stays within the account except for
                # per-flow floors, which can only add n_flows * floor.
                assert granted <= caps[kind] + len(result.flows) * floors[kind]

    def test_every_flow_stays_healthy(self, run):
        _fleet, result = run
        for flow_id, flow_result in result.flows.items():
            assert flow_result.invariants is not None
            assert flow_result.invariants.ok, (
                flow_id,
                flow_result.invariants.counts,
            )

    def test_flow_scoped_metric_dimensions(self, run):
        _fleet, result = run
        for flow_id, flow_result in result.flows.items():
            dims = flow_result.layer_dimensions[LayerKind.INGESTION]
            assert dims["StreamName"].startswith(f"{flow_id}-")
            assert len(flow_result.capacity_trace(LayerKind.INGESTION))

    def test_telemetry_reports_fleet_bounds(self, run):
        _fleet, result = run
        for flow_result in result.flows.values():
            telemetry = flow_result.telemetry
            assert telemetry.counter("fleet.coordinations") == 24
            assert "fleet.bound.analytics" in telemetry.gauges


class TestDenialAbsorption:
    def test_overcommitted_fleet_absorbs_denials(self):
        """With no coordinator and overcommitted bounds, flows hit the
        account limit mid-run; the denials surface as failed actuator
        attempts and breaker openings, never as crashes or violations."""
        bounds = {
            LayerKind.INGESTION: 10,
            LayerKind.ANALYTICS: 9,
            LayerKind.STORAGE: 2300,
        }
        fleet = RegionFleetManager(
            _flow_specs(share_bounds=bounds),
            limits=_tight_limits(),
            seed=7,
            coordinate_period=None,
        )
        result = fleet.run(7200)
        assert fleet.region.total_denials() > 0
        failed = 0
        for manager in fleet.managers.values():
            for loop in manager.loops.values():
                failed += loop.actuator.inner.failed_attempts
        assert failed >= fleet.region.total_denials()
        for flow_result in result.flows.values():
            assert flow_result.invariants.ok


class TestParallelFleetSweeps:
    def test_jobs_parallel_byte_identical_to_serial(self):
        scenarios = [
            SweepCase(
                name=f"fleet-{seed}",
                fn=_fleet_digest,
                kwargs=dict(seed=derive_scenario_seed(11, f"fleet-{seed}")),
            )
            for seed in range(2)
        ]
        serial = run_scenarios(scenarios, jobs=1)
        parallel = run_scenarios(scenarios, jobs=2)
        for a, b in zip(serial, parallel, strict=True):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_fleet_scenario_sweep_jobs4_byte_identical_to_serial(self):
        """Regression for the pinned start method: a 3-flow fleet sweep
        at jobs=4 is byte-identical to the serial sweep — each worker
        gets a fresh interpreter (forkserver/spawn, never fork), so no
        parent-process state can leak into the scenario results."""
        import dataclasses

        def cases():
            return [
                FleetScenarioSpec(
                    name=f"fleet-case{i}",
                    flows=_flow_specs(duration=1800),
                    limits=_tight_limits(),
                    duration=1800,
                )
                for i in range(4)
            ]

        def strip_wall(card):
            return dataclasses.replace(
                card,
                wall_seconds=0.0,
                flows={
                    name: dataclasses.replace(
                        flow, wall_seconds=0.0, ticks_per_second=0.0
                    )
                    for name, flow in card.flows.items()
                },
            )

        serial = sweep_fleet_scenarios(cases(), base_seed=11, jobs=1)
        parallel = sweep_fleet_scenarios(cases(), base_seed=11, jobs=4)
        assert list(serial) == list(parallel)
        for name in serial:
            assert pickle.dumps(strip_wall(serial[name])) == pickle.dumps(
                strip_wall(parallel[name])
            )


class TestFleetShareAnalyzer:
    def _specs(self, n=2):
        flow = clickstream_flow_spec()
        return [
            FlowShareSpec(
                flow_id=f"flow{i}",
                flow=flow,
                constraints=(
                    ShareConstraint.at_least(
                        5, LayerKind.ANALYTICS, LayerKind.INGESTION
                    ),
                ),
            )
            for i in range(n)
        ]

    def test_duplicate_flow_ids_rejected(self):
        specs = self._specs(1) * 2
        with pytest.raises(OptimizationError, match="unique"):
            FleetShareAnalyzer(specs)

    def test_front_respects_budget_and_account_limits(self):
        limits = RegionLimits(
            max_instances=6, max_total_shards=8, max_total_write_units=900
        )
        analyzer = FleetShareAnalyzer(self._specs(), limits=limits)
        front = analyzer.analyze(
            budget_per_hour=2.0, population_size=40, generations=60, seed=3
        )
        assert front.solutions
        caps = {
            LayerKind.INGESTION: limits.max_total_shards,
            LayerKind.ANALYTICS: limits.max_instances,
            LayerKind.STORAGE: limits.max_total_write_units,
        }
        for solution in front.solutions:
            assert solution.hourly_cost <= 2.0 + 1e-9
            for kind in FLEET_LAYER_ORDER:
                total = sum(share[kind] for _fid, share in solution.shares)
                assert total <= caps[kind]

    def test_scalar_and_vectorized_fronts_identical(self):
        analyzer = FleetShareAnalyzer(self._specs())
        kwargs = dict(budget_per_hour=2.5, population_size=30, generations=40, seed=5)
        fast = analyzer.analyze(vectorized=True, **kwargs)
        reference = analyzer.analyze(vectorized=False, **kwargs)
        assert [repr(s) for s in fast.solutions] == [
            repr(s) for s in reference.solutions
        ]

    def test_pick_strategies(self):
        analyzer = FleetShareAnalyzer(self._specs())
        front = analyzer.analyze(
            budget_per_hour=2.5, population_size=30, generations=40, seed=5
        )
        cheapest = front.pick("cheapest")
        assert all(cheapest.hourly_cost <= s.hourly_cost for s in front.solutions)
        balanced = front.pick("balanced")
        assert balanced in front.solutions
        assert front.pick("max:flow0") in front.solutions
        with pytest.raises(OptimizationError, match="unknown flow"):
            front.pick("max:nope")
        with pytest.raises(OptimizationError, match="unknown strategy"):
            front.pick("wat")

    def test_per_flow_costs_sum_to_fleet_cost(self):
        analyzer = FleetShareAnalyzer(self._specs())
        front = analyzer.analyze(
            budget_per_hour=2.5, population_size=30, generations=40, seed=5
        )
        for solution in front.solutions:
            assert sum(
                share.hourly_cost for _fid, share in solution.shares
            ) == pytest.approx(solution.hourly_cost)
