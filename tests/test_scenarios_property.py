"""Property tests: scenario serialisation is lossless.

For any valid scenario — random workload trees, random chaos
schedules, random knobs — ``parse(serialize(s)) == s``, byte-for-byte
through JSON. And invalid specs never half-load: they raise
``ConfigurationError`` with the offending field named in the message.
"""

import json

from hypothesis import given, settings, strategies as st

import pytest

from repro.chaos.schedule import ChaosSchedule, FaultKind, FaultSpec
from repro.core.errors import ConfigurationError
from repro.scenarios import Scenario, SLOTargets
from repro.scenarios.spec import PatternSpec

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
rates = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_rates = st.floats(min_value=0.1, max_value=1e6, allow_nan=False,
                           allow_infinity=False)


@st.composite
def step_params(draw, rates, extent):
    at = draw(st.integers(min_value=0, max_value=extent))
    until = draw(st.one_of(st.none(), st.integers(min_value=at + 1, max_value=at + extent)))
    return {"base": draw(rates), "level": draw(rates), "at": at, "until": until}


@st.composite
def ramp_params(draw, rates, extent):
    t0 = draw(st.integers(min_value=0, max_value=extent))
    return {
        "start_rate": draw(rates), "end_rate": draw(rates),
        "t0": t0, "t1": draw(st.integers(min_value=t0 + 1, max_value=t0 + extent)),
    }


@st.composite
def trace_points(draw, rates, extent):
    deltas = draw(st.lists(st.integers(min_value=1, max_value=min(3600, extent)),
                           min_size=1, max_size=8))
    start = draw(st.integers(min_value=0, max_value=extent))
    points, t = [], start
    for delta, value in zip(deltas, draw(st.lists(rates, min_size=len(deltas),
                                                  max_size=len(deltas)))):
        points.append([t, value])
        t += delta
    return points


def _leaves(rates, extent):
    times = st.integers(min_value=0, max_value=extent)
    return st.one_of(
        st.builds(lambda v: PatternSpec("constant", {"value": v}), rates),
        st.builds(lambda p: PatternSpec("step", p), step_params(rates, extent)),
        st.builds(lambda p: PatternSpec("ramp", p), ramp_params(rates, extent)),
        st.builds(
            lambda m, a, period, phase: PatternSpec(
                "sinusoid", {"mean": m, "amplitude": a, "period": period, "phase": phase}),
            rates, rates, st.integers(min_value=1, max_value=extent),
            st.integers(min_value=-extent, max_value=extent)),
        st.builds(
            lambda m, a, h: PatternSpec(
                "diurnal", {"mean": m, "amplitude": a, "peak_hour": h}),
            rates, rates, st.floats(min_value=0.0, max_value=24.0)),
        st.builds(
            lambda peak, at, rise, decay: PatternSpec(
                "flash_crowd", {"peak": peak, "at": at,
                                "rise_seconds": rise, "decay_seconds": decay}),
            rates, times, st.integers(min_value=1, max_value=7200),
            st.integers(min_value=1, max_value=7200)),
        st.builds(lambda pts, s: PatternSpec("trace", {"points": pts, "scale": s}),
                  trace_points(rates, extent), positive_rates),
    )


def _wrap(children_strategy):
    return st.one_of(
        st.builds(
            lambda c, f: PatternSpec("weekly", {"day_factors": f}, inner=(c,)),
            children_strategy, st.lists(rates, min_size=7, max_size=7)),
        st.builds(
            lambda c, bph, mult, dur: PatternSpec(
                "bursty", {"bursts_per_hour": bph, "multiplier": mult,
                           "duration_seconds": dur},
                inner=(c,)),
            children_strategy, st.floats(min_value=0.0, max_value=50.0),
            st.floats(min_value=1.0, max_value=20.0),
            st.integers(min_value=1, max_value=3600)),
        st.builds(
            lambda c, sigma, interval: PatternSpec(
                "noisy", {"sigma": sigma, "interval": interval}, inner=(c,)),
            children_strategy, st.floats(min_value=0.0, max_value=2.0),
            st.integers(min_value=1, max_value=3600)),
        st.builds(
            lambda cs: PatternSpec("sum", inner=tuple(cs)),
            st.lists(children_strategy, min_size=1, max_size=3)),
        st.builds(
            lambda cs: PatternSpec("product", inner=tuple(cs)),
            st.lists(children_strategy, min_size=1, max_size=3)),
    )


def pattern_trees(rates=rates, extent=10**6):
    """Workload trees whose leaf rates come from ``rates`` and whose
    event times, periods and phases stay within ``extent`` seconds."""
    return st.recursive(_leaves(rates, extent), _wrap, max_leaves=6)


pattern_specs = pattern_trees()

_POINT_KINDS = frozenset({FaultKind.WORKER_CRASH})
_FRACTION_KINDS = frozenset({FaultKind.SHARD_BROWNOUT, FaultKind.THROTTLE_STORM})


@st.composite
def fault_specs(draw, max_start):
    kind = draw(st.sampled_from(sorted(FaultKind, key=lambda k: k.value)))
    start = draw(st.integers(min_value=0, max_value=max_start))
    duration = 0 if kind in _POINT_KINDS else draw(
        st.integers(min_value=1, max_value=3600))
    if kind in _FRACTION_KINDS:
        intensity = draw(st.floats(min_value=0.01, max_value=0.99,
                                   allow_nan=False))
    else:
        intensity = draw(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
    return FaultSpec(kind, start=start, duration=duration, intensity=intensity)


@st.composite
def chaos_schedules(draw, max_start):
    faults = draw(st.lists(fault_specs(max_start=max_start), min_size=1, max_size=4))
    # Same-kind windows must not overlap; keep one fault per kind.
    unique = {f.kind: f for f in faults}
    return ChaosSchedule(faults=tuple(unique.values()),
                         seed=draw(st.integers(min_value=0, max_value=2**31)))


@st.composite
def scenarios(draw):
    duration = draw(st.integers(min_value=600, max_value=10**6))
    return Scenario(
        name=draw(st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
            min_size=1, max_size=30)),
        description=draw(st.text(max_size=60)),
        workload=draw(pattern_specs),
        duration=duration,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        controller=draw(st.sampled_from(["adaptive", "fixed", "quasi", "rule"])),
        reference=draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False)),
        control_period=draw(st.integers(min_value=1, max_value=600)),
        shards=draw(st.integers(min_value=1, max_value=64)),
        vms=draw(st.integers(min_value=1, max_value=64)),
        write_units=draw(st.integers(min_value=1, max_value=10**5)),
        slo=SLOTargets(
            utilization_band=draw(st.floats(min_value=1.0, max_value=100.0,
                                            allow_nan=False)),
            max_violation_pct=draw(st.floats(min_value=0.0, max_value=100.0,
                                             allow_nan=False)),
        ),
        budget_usd_per_hour=draw(st.one_of(
            st.none(), st.floats(min_value=0.01, max_value=1e4, allow_nan=False))),
        chaos=draw(st.one_of(st.none(), chaos_schedules(max_start=duration - 1))),
        key_skew=draw(st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
        exact=draw(st.booleans()),
    )


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(spec=pattern_specs)
    def test_pattern_round_trips(self, spec):
        assert PatternSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=200, deadline=None)
    @given(spec=pattern_specs)
    def test_pattern_round_trips_through_json(self, spec):
        clone = PatternSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_scenario_round_trips(self, scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_serialisation_is_stable(self, scenario):
        """serialize(parse(serialize(s))) is byte-identical — the JSON
        form is canonical, so committed specs never churn on re-save."""
        once = scenario.to_json()
        assert Scenario.from_json(once).to_json() == once


# ----------------------------------------------------------------------
# Invalid specs raise, naming the offending field
# ----------------------------------------------------------------------
class TestInvalidSpecs:
    @settings(max_examples=100, deadline=None)
    @given(spec=pattern_specs, data=st.data())
    def test_unknown_param_names_the_field(self, spec, data):
        junk = data.draw(st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12,
        ).filter(lambda s: s not in spec.to_dict()))
        payload = spec.to_dict()
        payload[junk] = 1.0
        with pytest.raises(ConfigurationError) as err:
            PatternSpec.from_dict(payload)
        assert junk in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios(), value=st.one_of(
        st.floats(allow_nan=True).filter(
            lambda v: v != v or v in (float("inf"), float("-inf")) or v <= 0),
        st.text(max_size=5),
    ))
    def test_corrupt_duration_names_the_field(self, scenario, value):
        payload = json.loads(scenario.to_json())
        payload["duration"] = None if value != value else value
        with pytest.raises(ConfigurationError) as err:
            Scenario.from_dict(payload)
        assert "scenario.duration" in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios())
    def test_corrupt_workload_kind_names_the_field(self, scenario):
        payload = json.loads(scenario.to_json())
        payload["workload"]["kind"] = "mystery"
        with pytest.raises(ConfigurationError) as err:
            Scenario.from_dict(payload)
        assert "workload.kind" in str(err.value)
