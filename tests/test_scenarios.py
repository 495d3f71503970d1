"""The scenario DSL, the curated catalog, and the catalog gate.

Validation must name the offending field; serialisation must be
lossless; the catalog must stay runnable in both variants; and the
matrix runner must be byte-identical at any parallelism — the property
the CI ``gates`` job's determinism rests on.
"""

import dataclasses
import json

import pytest

from repro.analysis.scorecard import drift
from repro.chaos.schedule import ChaosSchedule, FaultKind, FaultSpec
from repro.core.errors import ConfigurationError
from repro.scenarios import (
    CATALOG_NAMES,
    CatalogEntry,
    CatalogMatrix,
    Scenario,
    SLOTargets,
    catalog,
    catalog_scenario,
    run_catalog,
    run_scenario,
)
from repro.scenarios.spec import PatternSpec


def tiny_scenario(**overrides) -> Scenario:
    """A cheap, valid scenario for runner-level tests."""
    defaults = dict(
        name="tiny",
        workload=PatternSpec("constant", {"value": 900.0}),
        duration=900,
        seed=5,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ----------------------------------------------------------------------
# Pattern validation: every rejection names the offending field
# ----------------------------------------------------------------------
class TestPatternValidation:
    @pytest.mark.parametrize("kind,params,inner,field", [
        ("nope", {}, (), "workload.kind"),
        ("constant", {}, (), "workload.value"),
        ("constant", {"value": -1.0}, (), "workload.value"),
        ("constant", {"value": float("nan")}, (), "workload.value"),
        ("constant", {"value": "fast"}, (), "workload.value"),
        ("step", {"base": 1.0, "level": 2.0, "at": 10, "until": 5}, (), "workload.until"),
        ("ramp", {"start_rate": 1.0, "end_rate": 2.0, "t0": 50, "t1": 50}, (), "workload.t1"),
        ("sinusoid", {"mean": 1.0, "amplitude": 1.0, "period": 0}, (), "workload.period"),
        ("diurnal", {"mean": 1.0, "amplitude": 1.0, "peak_hour": 25.0}, (),
         "workload.peak_hour"),
        ("flash_crowd", {"peak": 5.0, "at": 0, "rise_seconds": 0}, (),
         "workload.rise_seconds"),
        ("weekly", {"day_factors": [1.0] * 6}, ("child",), "workload.day_factors"),
        ("bursty", {"multiplier": 0.5}, ("child",), "workload.multiplier"),
        ("noisy", {"sigma": -0.1}, ("child",), "workload.sigma"),
        ("trace", {}, (), "workload.csv"),
        ("trace", {"csv": "x.csv", "points": [[0, 1.0]]}, (), "workload.csv"),
        ("trace", {"points": [[0, 1.0], [0, 2.0]]}, (), "workload.points[1].time"),
        ("trace", {"points": [[0, 1.0], [60, "x"]]}, (), "workload.points[1].value"),
        ("constant", {"value": 1.0, "volume": 11}, (), "workload.volume"),
    ])
    def test_invalid_params_name_the_field(self, kind, params, inner, field):
        children = tuple(
            PatternSpec("constant", {"value": 1.0}) for _ in inner
        )
        with pytest.raises(ConfigurationError) as err:
            PatternSpec(kind, params, inner=children)
        assert field in str(err.value)

    @pytest.mark.parametrize("kind,n_children,field", [
        ("sum", 0, "workload.inner"),
        ("weekly", 0, "workload.inner"),
        ("weekly", 2, "workload.inner"),
        ("constant", 1, "workload.inner"),
    ])
    def test_wrong_child_count_names_inner(self, kind, n_children, field):
        params = {"value": 1.0} if kind == "constant" else (
            {"day_factors": [1.0] * 7} if kind == "weekly" else {}
        )
        children = tuple(
            PatternSpec("constant", {"value": 1.0}) for _ in range(n_children)
        )
        with pytest.raises(ConfigurationError) as err:
            PatternSpec(kind, params, inner=children)
        assert field in str(err.value)

    def test_params_are_normalised(self):
        spec = PatternSpec("constant", {"value": 5})
        assert spec.params == {"value": 5.0}
        assert isinstance(spec.params["value"], float)

    def test_missing_trace_file_names_csv(self):
        spec = PatternSpec("trace", {"csv": "no-such-trace.csv"})
        with pytest.raises(ConfigurationError, match="csv.*not found"):
            spec.build(seed=1, horizon=100)

    def test_stochastic_builds_are_path_stable(self):
        """A bursty node's draws depend on its path, not its siblings."""
        child = PatternSpec("constant", {"value": 100.0})
        bursty = PatternSpec("bursty", {"bursts_per_hour": 6.0}, inner=(child,))
        alone = PatternSpec("sum", inner=(bursty,))
        with_sibling = PatternSpec("sum", inner=(bursty, child))
        a = alone.build(seed=7, horizon=7200)
        b = with_sibling.build(seed=7, horizon=7200)
        assert a.patterns[0].burst_starts == b.patterns[0].burst_starts


# ----------------------------------------------------------------------
# Scenario validation
# ----------------------------------------------------------------------
class TestScenarioValidation:
    @pytest.mark.parametrize("overrides,field", [
        (dict(name=""), "scenario.name"),
        (dict(name="two words"), "scenario.name"),
        (dict(duration=0), "scenario.duration"),
        (dict(controller="pid"), "scenario.controller"),
        (dict(reference=0.0), "scenario.reference"),
        (dict(reference=120.0), "scenario.reference"),
        (dict(control_period=901), "scenario.control_period"),
        (dict(shards=0), "scenario.capacity.shards"),
        (dict(vms=0), "scenario.capacity.vms"),
        (dict(write_units=0), "scenario.capacity.write_units"),
        (dict(budget_usd_per_hour=0.0), "scenario.budget_usd_per_hour"),
        (dict(key_skew=-1.0), "scenario.key_skew"),
        (dict(exact="yes"), "scenario.exact"),
    ])
    def test_invalid_fields_are_named(self, overrides, field):
        with pytest.raises(ConfigurationError) as err:
            tiny_scenario(**overrides)
        assert field in str(err.value)

    def test_slo_band_bounds_are_named(self):
        with pytest.raises(ConfigurationError, match="slo.utilization_band"):
            SLOTargets(utilization_band=101.0)
        with pytest.raises(ConfigurationError, match="slo.max_violation_pct"):
            SLOTargets(max_violation_pct=-1.0)

    def test_fault_past_duration_is_rejected(self):
        chaos = ChaosSchedule(faults=(
            FaultSpec(FaultKind.THROTTLE_STORM, start=1000, duration=60, intensity=0.5),
        ))
        with pytest.raises(ConfigurationError, match="chaos.*never fire"):
            tiny_scenario(chaos=chaos)

    def test_unknown_top_level_field_is_named(self):
        data = tiny_scenario().to_dict()
        data["pudget"] = 3.0
        with pytest.raises(ConfigurationError, match="scenario.pudget"):
            Scenario.from_dict(data)

    def test_unknown_capacity_field_is_named(self):
        data = tiny_scenario().to_dict()
        data["capacity"]["gpus"] = 1
        with pytest.raises(ConfigurationError, match="scenario.capacity.gpus"):
            Scenario.from_dict(data)

    def test_missing_required_fields_are_named(self):
        with pytest.raises(ConfigurationError, match="scenario.workload"):
            Scenario.from_dict({"name": "x", "duration": 100})
        with pytest.raises(ConfigurationError, match="scenario.duration"):
            Scenario.from_dict(
                {"name": "x", "workload": {"kind": "constant", "value": 1.0}}
            )

    def test_invalid_json_is_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            Scenario.from_json("{nope")


# ----------------------------------------------------------------------
# Serialisation round-trips (fixed cases; hypothesis covers random ones)
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("variant", ["smoke", "full"])
    def test_every_catalog_scenario_round_trips(self, name, variant):
        scenario = catalog_scenario(name, variant)
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_chaos_and_slo_survive(self):
        scenario = tiny_scenario(
            chaos=ChaosSchedule(faults=(
                FaultSpec(FaultKind.WORKER_CRASH, start=450, intensity=1.0),
            ), seed=5),
            slo=SLOTargets(utilization_band=70.0, max_violation_pct=5.0),
            budget_usd_per_hour=1.25,
            exact=False,
        )
        clone = Scenario.from_dict(json.loads(scenario.to_json()))
        assert clone == scenario
        assert clone.chaos == scenario.chaos
        assert clone.slo == scenario.slo


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_at_least_eight_scenarios(self):
        assert len(CATALOG_NAMES) >= 8
        assert len(set(CATALOG_NAMES)) == len(CATALOG_NAMES)

    @pytest.mark.parametrize("variant", ["smoke", "full"])
    def test_every_scenario_is_valid_and_compiles(self, variant):
        scenarios = catalog(variant)
        assert tuple(scenarios) == CATALOG_NAMES
        for scenario in scenarios.values():
            manager = scenario.build_manager()
            assert manager is not None

    def test_full_variant_is_longer(self):
        smoke, full = catalog("smoke"), catalog("full")
        for name in CATALOG_NAMES:
            assert full[name].duration > smoke[name].duration

    def test_catalog_covers_fault_and_controller_diversity(self):
        scenarios = catalog("smoke").values()
        styles = {s.controller for s in scenarios}
        assert len(styles) >= 3
        fault_kinds = {
            spec.kind for s in scenarios if s.chaos for spec in s.chaos.faults
        }
        assert len(fault_kinds) >= 6
        assert any(s.workload.kind == "trace" for s in scenarios)
        assert any(s.key_skew > 1.0 for s in scenarios)

    def test_unknown_variant_and_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown catalog variant"):
            catalog("huge")
        with pytest.raises(ConfigurationError, match="unknown catalog scenario"):
            catalog_scenario("nope")


# ----------------------------------------------------------------------
# The runner and the matrix gate
# ----------------------------------------------------------------------
class TestRunCatalog:
    @pytest.fixture(scope="class")
    def pair(self):
        return {
            "tiny-a": tiny_scenario(name="tiny-a"),
            "tiny-b": tiny_scenario(
                name="tiny-b",
                seed=9,
                budget_usd_per_hour=2.0,
                chaos=ChaosSchedule(faults=(
                    FaultSpec(FaultKind.THROTTLE_STORM, start=300,
                              duration=120, intensity=0.6),
                ), seed=9),
            ),
        }

    @pytest.fixture(scope="class")
    def matrix(self, pair):
        return run_catalog(pair, variant="smoke", jobs=1)

    def test_jobs_do_not_change_a_byte(self, pair, matrix):
        parallel = run_catalog(pair, variant="smoke", jobs=2)
        assert parallel.to_json() == matrix.to_json()

    def test_rerun_is_byte_identical(self, pair, matrix):
        assert run_catalog(pair, jobs=1).to_json() == matrix.to_json()

    def test_wall_clock_fields_are_zeroed(self, matrix):
        for entry in matrix.entries.values():
            assert entry.card.wall_seconds == 0.0
            assert entry.card.ticks_per_second == 0.0

    def test_budget_verdicts(self, matrix):
        assert matrix.entries["tiny-a"].within_budget is None
        assert matrix.entries["tiny-b"].within_budget is not None

    def test_matrix_round_trip(self, matrix, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(matrix.to_json())
        clone = CatalogMatrix.from_json_file(path)
        assert clone == matrix
        assert drift(matrix.to_dict(), clone.to_dict()) == []

    def test_card_drift_is_prefixed_with_scenario_name(self, matrix):
        entries = dict(matrix.entries)
        entries["tiny-a"] = dataclasses.replace(
            entries["tiny-a"],
            card=dataclasses.replace(
                entries["tiny-a"].card,
                total_cost=entries["tiny-a"].card.total_cost * 2,
            ),
        )
        drifted = dataclasses.replace(matrix, entries=entries)
        messages = drift(matrix.to_dict(), drifted.to_dict())
        assert any(m.startswith("scenarios.tiny-a.card.total_cost:") for m in messages)

    def test_verdict_drift_is_named(self, matrix):
        entries = dict(matrix.entries)
        entries["tiny-b"] = dataclasses.replace(entries["tiny-b"], slo_ok=False)
        drifted = dataclasses.replace(matrix, entries=entries)
        assert any(
            m.startswith("scenarios.tiny-b.slo_ok:")
            for m in drift(matrix.to_dict(), drifted.to_dict())
        )

    def test_missing_scenario_is_drift(self, matrix):
        entries = dict(matrix.entries)
        entries.pop("tiny-b")
        drifted = dataclasses.replace(matrix, entries=entries)
        assert drift(matrix.to_dict(), drifted.to_dict()) == [
            "scenarios.tiny-b: missing from the fresh run"
        ]

    def test_variant_mismatch_is_drift(self, matrix):
        drifted = dataclasses.replace(matrix, variant="full")
        assert any(
            m.startswith("variant:") for m in drift(matrix.to_dict(), drifted.to_dict())
        )

    def test_non_matrix_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not a scenario-catalog"):
            CatalogMatrix.from_dict({"kind": "fleet"})

    def test_run_scenario_slo_band_feeds_the_card(self, pair):
        tight = dataclasses.replace(
            pair["tiny-a"], slo=SLOTargets(utilization_band=1.0)
        )
        loose = pair["tiny-a"]
        assert max(
            run_scenario(tight).slo_violation_pct.values()
        ) >= max(run_scenario(loose).slo_violation_pct.values())


class TestCommittedBaseline:
    def test_baseline_loads_and_covers_the_catalog(self):
        matrix = CatalogMatrix.from_json_file("results/SCORECARD_catalog.json")
        assert matrix.variant == "smoke"
        assert matrix.exact is True
        assert tuple(sorted(matrix.entries)) == tuple(sorted(CATALOG_NAMES))
        for entry in matrix.entries.values():
            assert entry.card.wall_seconds == 0.0
            assert entry.card.invariants_ok

    def test_entry_shape(self):
        matrix = CatalogMatrix.from_json_file("results/SCORECARD_catalog.json")
        entry = matrix.entries["flash-crowd-throttle-storm"]
        assert isinstance(entry, CatalogEntry)
        assert entry.card.mttr_by_fault  # the throttle storm is scored
        assert entry.within_budget is True
