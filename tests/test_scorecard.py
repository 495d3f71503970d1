"""Run scorecards: field extraction, serialisation round-trips, and the
regression gate's drift walk (every key, tight, bidirectional,
wall-clock exempt)."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scorecard import (
    SMOKE_SCENARIOS,
    WALL_CLOCK_FIELDS,
    RunScorecard,
    drift,
    run_smoke_scenario,
)
from repro.core.errors import ConfigurationError

#: Short horizon for the in-test smoke runs; the committed baselines in
#: ``results/`` use the full SMOKE_DURATION and gate the real numbers.
DURATION = 1800


@pytest.fixture(scope="module")
def steady():
    return run_smoke_scenario("steady", duration=DURATION)


@pytest.fixture(scope="module")
def chaos():
    return run_smoke_scenario("chaos", duration=DURATION)


# ----------------------------------------------------------------------
# from_result / run_smoke_scenario field extraction
# ----------------------------------------------------------------------
class TestSmokeScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scorecard scenario"):
            run_smoke_scenario("nope")

    def test_steady_fields_populated(self, steady):
        assert steady.name == "steady"
        assert steady.duration_seconds == DURATION
        assert set(steady.slo_violation_pct) == {"ingestion", "analytics", "storage"}
        assert set(steady.cost_by_layer) >= {"ingestion", "analytics", "storage"}
        assert steady.total_cost == pytest.approx(
            sum(steady.cost_by_layer.values()), rel=1e-6
        )
        assert steady.total_cost > 0
        # Every layer loop decides every control period.
        assert set(steady.decisions) == {"ingestion", "analytics", "storage"}
        assert all(n == DURATION // 60 for n in steady.decisions.values())
        assert all(
            steady.actuations[k] <= steady.decisions[k] for k in steady.actuations
        )
        assert steady.mttr_by_fault == {}
        assert steady.invariants_ok

    def test_steady_chains_all_close(self, steady):
        assert steady.causal_chains > 0
        assert steady.causal_chains_closed == steady.causal_chains

    def test_chaos_scores_every_fault(self, chaos):
        # One MTTR entry per injected fault, keyed kind@start.
        assert len(chaos.mttr_by_fault) == 3
        assert all("@" in key for key in chaos.mttr_by_fault)
        assert chaos.causal_chains > steady_chains_lower_bound(chaos)

    def test_scenario_registry_matches_baselines(self):
        assert SMOKE_SCENARIOS == ("steady", "chaos", "fleet")


def steady_chains_lower_bound(chaos: RunScorecard) -> int:
    # At minimum one chain per decision that acted, plus the faults.
    return sum(chaos.actuations.values())


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
class TestSerialisation:
    def test_json_round_trip_is_lossless(self, steady):
        clone = RunScorecard.from_dict(json.loads(steady.to_json()))
        assert clone == steady

    def test_to_dict_covers_every_field(self, steady):
        d = steady.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(RunScorecard)}

    def test_summary_renders_key_numbers(self, chaos):
        text = chaos.summary()
        assert f"{chaos.total_cost:.4f}" in text
        assert "causal chains" in text
        assert "mttr per fault" in text


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_scorecards_pass(self, steady):
        assert drift(steady.to_dict(), steady.to_dict()) == []

    def test_scalar_drift_is_named(self, steady):
        drifted = dataclasses.replace(steady, total_cost=steady.total_cost * 1.01)
        messages = drift(drifted.to_dict(), steady.to_dict())
        assert any(m.startswith("total_cost:") for m in messages)

    def test_improvement_fails_too(self, steady):
        """A cheaper run without a regenerated baseline is drift."""
        drifted = dataclasses.replace(steady, total_cost=steady.total_cost * 0.5)
        assert drift(drifted.to_dict(), steady.to_dict())

    def test_dict_drift_names_the_key(self, steady):
        costs = dict(steady.cost_by_layer)
        costs["storage"] = costs["storage"] + 1.0
        drifted = dataclasses.replace(steady, cost_by_layer=costs)
        messages = drift(drifted.to_dict(), steady.to_dict())
        assert any(m.startswith("cost_by_layer.storage:") for m in messages)

    def test_missing_dict_key_is_drift(self, steady):
        costs = dict(steady.cost_by_layer)
        costs.pop("storage")
        drifted = dataclasses.replace(steady, cost_by_layer=costs)
        assert "cost_by_layer.storage: missing from the fresh run" in drift(
            steady.to_dict(), drifted.to_dict()
        )

    def test_field_absent_from_baseline_is_drift(self, steady):
        """A field the current card has but the baseline lacks (future
        schema additions, hand-edited baselines) must surface as drift,
        not be silently skipped."""
        legacy = steady.to_dict()
        del legacy["breaker_openings"]
        del legacy["clamps"]
        messages = drift(legacy, steady.to_dict())
        assert messages == [
            "breaker_openings: missing from the baseline",
            "clamps: missing from the baseline",
        ]

    def test_wall_clock_fields_exempt(self, steady):
        drifted = dataclasses.replace(
            steady, wall_seconds=steady.wall_seconds + 100.0, ticks_per_second=1.0
        )
        assert drift(drifted.to_dict(), steady.to_dict()) == []
        assert WALL_CLOCK_FIELDS == {
            "wall_seconds", "ticks_per_second", "flow_wall_seconds"
        }

    def test_mttr_none_vs_number_is_drift(self, chaos):
        mttr = dict(chaos.mttr_by_fault)
        key = next(iter(mttr))
        mttr[key] = None
        drifted = dataclasses.replace(chaos, mttr_by_fault=mttr)
        assert any(key in m for m in drift(drifted.to_dict(), chaos.to_dict()))


#: The four committed baselines' trees, by file name.
BASELINES = {
    path.name: json.loads(path.read_text())
    for path in sorted(Path("results").glob("SCORECARD_*.json"))
}


def _key_paths(tree, prefix=()):
    """Every key's path at every depth, with its value."""
    for key, value in tree.items():
        yield prefix + (key,), value
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


#: ``(file, key path, value)`` for every key of the four committed
#: baselines.
BASELINE_KEYS = [
    (name, path, value)
    for name, tree in BASELINES.items()
    for path, value in _key_paths(tree)
]


def _edit(tree, path, edit):
    """A deep copy of ``tree`` with ``edit(parent, key)`` applied."""
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return tree


class TestDriftOverCommittedBaselines:
    """The walk over the four committed baselines' trees, no simulation:
    every key can drift, and only the wall-clock keys cannot."""

    def test_four_baselines(self):
        assert sorted(BASELINES) == [
            "SCORECARD_catalog.json", "SCORECARD_chaos_smoke.json",
            "SCORECARD_fleet_smoke.json", "SCORECARD_steady_smoke.json",
        ]

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        entry=st.sampled_from(BASELINE_KEYS),
        change=st.sampled_from(["delete-fresh", "delete-baseline", "scale", "retype"]),
    )
    def test_every_key_can_drift(self, entry, change):
        name, path, value = entry
        tree = BASELINES[name]
        dotted = ".".join(path)
        assert drift(tree, tree) == []
        wall_clock = any(key in WALL_CLOCK_FIELDS for key in path)
        if change == "retype":
            # A leaf or a subtree replaced by a string is drift, never a
            # crash; an ``exact`` that differs refuses the comparison.
            changed = _edit(tree, path, lambda parent, key: parent.__setitem__(key, "retyped"))
            if path[-1] == "exact":
                with pytest.raises(ConfigurationError, match="not bit-comparable"):
                    drift(tree, changed)
                return
            assert drift(tree, changed) == (
                [] if wall_clock else [f"{dotted}: baseline {value!r}, got 'retyped'"]
            )
            return
        if change == "scale":
            if wall_clock:
                changed = _edit(tree, path, lambda parent, key: parent.__setitem__(key, 1.5))
                assert drift(tree, changed) == []
                return
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value == 0:
                return
            changed = _edit(
                tree, path, lambda parent, key: parent.__setitem__(key, parent[key] * (1 + 1e-6))
            )
            assert drift(tree, changed) == [
                f"{dotted}: baseline {value!r}, got {value * (1 + 1e-6)!r}"
            ]
            return
        deleted = _edit(tree, path, lambda parent, key: parent.pop(key))
        if change == "delete-fresh":
            found, side = drift(tree, deleted), "fresh run"
        else:
            found, side = drift(deleted, tree), "baseline"
        assert found == ([] if wall_clock else [f"{dotted}: missing from the {side}"])


# ----------------------------------------------------------------------
# Fleet scorecards
# ----------------------------------------------------------------------
class TestFleetScorecard:
    @pytest.fixture(scope="class")
    def fleet(self):
        return run_smoke_scenario("fleet", duration=DURATION)

    def test_fields_populated(self, fleet):
        assert fleet.name == "fleet"
        assert fleet.duration_seconds == DURATION
        assert sorted(fleet.flows) == ["flow0", "flow1", "flow2"]
        assert fleet.coordinator_passes == DURATION // 300
        assert fleet.total_cost == pytest.approx(
            sum(card.total_cost for card in fleet.flows.values()), rel=1e-6
        )
        for card in fleet.flows.values():
            assert card.invariants_ok

    def test_identical_cards_pass(self, fleet):
        assert drift(fleet.to_dict(), fleet.to_dict()) == []

    def test_fleet_level_drift_is_named(self, fleet):
        drifted = dataclasses.replace(fleet, cap_retargets=fleet.cap_retargets + 1)
        messages = drift(fleet.to_dict(), drifted.to_dict())
        assert any(m.startswith("cap_retargets:") for m in messages)

    def test_per_flow_drift_is_prefixed(self, fleet):
        flows = dict(fleet.flows)
        flows["flow1"] = dataclasses.replace(
            flows["flow1"], retry_attempts=flows["flow1"].retry_attempts + 5
        )
        drifted = dataclasses.replace(fleet, flows=flows)
        messages = drift(fleet.to_dict(), drifted.to_dict())
        assert any(m.startswith("flows.flow1.retry_attempts:") for m in messages)

    def test_missing_flow_is_drift(self, fleet):
        flows = dict(fleet.flows)
        flows.pop("flow2")
        drifted = dataclasses.replace(fleet, flows=flows)
        messages = drift(fleet.to_dict(), drifted.to_dict())
        assert "flows.flow2: missing from the fresh run" in messages

    def test_denial_drift_is_named(self, fleet):
        denials = {**fleet.denials, "flow0": {"instances": 999}}
        drifted = dataclasses.replace(fleet, denials=denials)
        messages = drift(fleet.to_dict(), drifted.to_dict())
        assert any(m.startswith("denials.flow0.instances") for m in messages)

    def test_wall_clock_exempt(self, fleet):
        drifted = dataclasses.replace(
            fleet, wall_seconds=fleet.wall_seconds + 100, flow_wall_seconds={"flow0": 1.0}
        )
        assert drift(fleet.to_dict(), drifted.to_dict()) == []

    def test_committed_baseline_loads_and_has_expected_shape(self):
        card = json.loads(Path("results/SCORECARD_fleet_smoke.json").read_text())
        assert card["name"] == "fleet"
        assert sorted(card["flows"]) == ["flow0", "flow1", "flow2"]
        assert card["coordinator_passes"] > 0


# ----------------------------------------------------------------------
# Scenario-catalog guardrails: the fast path runs clean, and the
# exactness firewall extends to catalog cards and matrices.
# ----------------------------------------------------------------------
class TestCatalogExactness:
    @pytest.fixture(scope="class")
    def fast_matrix(self):
        from repro.scenarios import catalog, run_catalog

        return run_catalog(catalog("smoke"), variant="smoke", jobs=1, fast=True)

    def test_every_catalog_scenario_runs_clean_under_fast(self, fast_matrix):
        from repro.scenarios import CATALOG_NAMES

        assert sorted(fast_matrix.entries) == sorted(CATALOG_NAMES)
        assert fast_matrix.exact is False
        for name, entry in fast_matrix.entries.items():
            assert entry.card.exact is False, name
            assert entry.card.invariants_ok, name
            assert entry.card.total_cost > 0, name

    def test_fast_card_refuses_exact_baseline(self, fast_matrix):
        from repro.scenarios import catalog_scenario, run_scenario

        exact_card = run_scenario(catalog_scenario("flash-crowd-throttle-storm"))
        fast_card = fast_matrix.entries["flash-crowd-throttle-storm"].card
        with pytest.raises(ConfigurationError, match="exact=False.*exact=True"):
            drift(exact_card.to_dict(), fast_card.to_dict())
        with pytest.raises(ConfigurationError, match="exact=True.*exact=False"):
            drift(fast_card.to_dict(), exact_card.to_dict())

    def test_fast_matrix_refuses_exact_baseline(self, fast_matrix):
        baseline = json.loads(Path("results/SCORECARD_catalog.json").read_text())
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            drift(baseline, fast_matrix.to_dict())
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            drift(fast_matrix.to_dict(), baseline)
