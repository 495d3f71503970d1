"""Differential fuzzing: span execution ≡ the per-tick loop, on generated flows.

Each example is a runnable :class:`~repro.scenarios.Scenario` built from
the pattern and chaos strategies of ``test_scenarios_property``, at most
an hour long, with its workload scaled against its drawn capacities so
runs visit every regime: idle, analytics-bound and throttled. It runs
twice, with ``span_execution`` off and on, each under a strict
:class:`~repro.chaos.invariants.InvariantChecker`, and the two results
must be repr-identical (``test_span_equivalence.assert_equivalent``).

The property could pass by never reaching the closed forms, so the test
also logs what ``_FlowPipeline.run_span`` did on every spanned run and
asserts, across the corpus, that each stretch and each hand-over was
reached: vector ↔ scalar, saturated ↔ scalar, throttled ↔ scalar, a
flush overflow and a regime exit that end each closed-form stretch, a
producer backlog, and an injection of every chaos fault kind. Every
closed-form stop is judged by an exit oracle independent of the run
test (``test_span_equivalence._closed_form_exits``): one the next tick
does not explain fails the example.

The tier-1 profile is derandomized, so its corpus is fixed. A longer
random run is opt-in::

    FUZZ_PROFILE=fuzz-long PYTHONPATH=src python -m pytest tests/test_differential_fuzz.py

A failure found there is shrunk by hypothesis; commit it as an
``@example`` on :func:`test_span_execution_matches_per_tick_loop`.

A second, smaller property holds the scenario runner to jobs=1 ≡
jobs=N: a batch of three generated scenarios, one fast, one exact and
one as drawn, gives the same scorecards serially and on two workers.

The fleet leg puts two or three drawn flows into one
:class:`~repro.core.fleet.RegionFleetManager` whose account limits
leave little headroom, runs it with ``span_execution`` off and on, and
requires repr-identical per-flow results; across its corpus some flow's
sub-span must start on a VM boot, hoisted by ``FleetSpanExecutor``.
"""

import dataclasses
import os
from collections import Counter

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.chaos.schedule import ChaosSchedule, FaultKind, FaultSpec
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.region import RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, make_controller
from repro.core.fleet import FleetFlowSpec, FleetScenarioSpec
from repro.core.flow import LayerKind
from repro.core.manager import ServiceCapacities, _FlowPipeline
from repro.scenarios import Scenario
from repro.scenarios.runner import run_catalog
from repro.scenarios.spec import PatternSpec
from repro.workload.clickstream import ClickStreamConfig

from tests.test_scenarios_property import chaos_schedules, pattern_trees
from tests.test_span_equivalence import _closed_form_exits, _log_stretches, assert_equivalent

settings.register_profile(
    "fuzz-tier1", max_examples=40, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "fuzz-long", max_examples=400, deadline=None, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
PROFILE = settings.get_profile(os.environ.get("FUZZ_PROFILE", "fuzz-tier1"))

#: Scenario flows process 1000 records/s per VM (``Scenario.build_manager``)
#: and Kinesis accepts 1000 records/s per shard.
RECORDS_PER_UNIT = 1000
CATALOG_PAGES = ClickStreamConfig().catalog_pages

#: Paths the corpus must reach: stretch hand-overs inside one span
#: (``a->b``), closed-form stretches a flush overflow cut short, each
#: closed form ending on an exit of its regime (``<kind>-exit``), a
#: throttled producer, and an injected fault of every kind
#: (``inject:<kind>``).
REQUIRED_PATHS = frozenset({
    "vector->scalar", "scalar->vector",
    "saturated->scalar", "scalar->saturated",
    "throttled->scalar", "scalar->throttled",
    "vector-overflow", "saturated-overflow", "throttled-overflow",
    "vector-exit", "saturated-exit", "throttled-exit",
    "producer-backlog",
}) | frozenset(f"inject:{kind.value}" for kind in FaultKind)


def _scaled(shape: PatternSpec, peak: float, seed: int, duration: int) -> PatternSpec:
    """``shape`` rescaled so its largest rate over the run is ``peak``."""
    unit = PatternSpec("product", inner=(shape, PatternSpec("constant", {"value": 1.0})))
    top = float(unit.build(seed, duration).values(0, duration).max())
    if not top > 1e-6:
        return shape
    return PatternSpec("product", inner=(shape, PatternSpec("constant", {"value": peak / top})))


#: A busy window's flush writes about one item per catalog page (at key
#: skews up to 1); the table's write units are drawn as that flush over
#: this ratio. The 10-second burst bucket absorbs a flush up to 11 times
#: the units and refills by 9 between flushes, so half the draws land
#: where only some flushes overflow it.
flush_ratios = st.one_of(
    st.floats(min_value=0.5, max_value=12.0),
    st.floats(min_value=9.5, max_value=11.5),
)


@st.composite
def runnable_scenarios(draw):
    duration = draw(st.integers(min_value=600, max_value=3600))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # Load is a drawn base plus a drawn shape, both against Storm's
    # capacity, and the shards accept at least what the VMs process:
    # flows idle, run Storm-bound, or throttle the producer, by draw.
    vms = draw(st.integers(min_value=1, max_value=3))
    shards = draw(st.integers(min_value=vms, max_value=vms + 2))
    processes = RECORDS_PER_UNIT * vms
    base = draw(st.floats(min_value=0.0, max_value=1.5)) * processes
    swing = draw(st.floats(min_value=0.0, max_value=1.0)) * processes
    shape = draw(pattern_trees(rates=st.floats(min_value=0.0, max_value=1.0), extent=duration))
    workload = PatternSpec("sum", inner=(
        PatternSpec("constant", {"value": base}), _scaled(shape, swing, seed, duration),
    ))
    # The bit-exact path draws every record's size: keep it to small runs.
    exact = draw(st.booleans()) and (base + swing) * duration <= 2e6
    return Scenario(
        name="fuzz",
        workload=workload,
        duration=duration,
        seed=seed,
        controller=draw(st.sampled_from(["adaptive", "fixed", "quasi", "rule"])),
        reference=draw(st.floats(min_value=20.0, max_value=90.0)),
        control_period=draw(st.sampled_from([60, 120, 300, 600])),
        shards=shards,
        vms=vms,
        write_units=max(1, round(CATALOG_PAGES / draw(flush_ratios))),
        chaos=draw(st.one_of(st.none(), chaos_schedules(max_start=duration - 1))),
        key_skew=draw(st.floats(min_value=0.0, max_value=1.0)),
        exact=exact,
    )


def _paths(calls: list, result) -> set[str]:
    """The :data:`REQUIRED_PATHS` one spanned run reached, from its
    ``_log_stretches`` calls ``(span, kind, stop asked for, stop reached)``."""
    paths = set()
    for (span, kind, _, _), (next_span, next_kind, _, _) in zip(calls, calls[1:]):
        if span == next_span:
            paths.add(f"{kind}->{next_kind}")
    for _, kind, stop, reached in calls:
        if kind != "scalar" and reached < stop:
            paths.add(f"{kind}-overflow")
    if max(result.throttle_trace(LayerKind.INGESTION).values, default=0) > 0:
        paths.add("producer-backlog")
    paths.update(f"inject:{e.fault}" for e in result.chaos_events if e.phase == "inject")
    return paths


#: Explicit corpus members, run before the generated ones in every
#: profile, so each required path is reached whatever the generator
#: draws. A flow whose flushes ride the write bucket's edge (46 units
#: against about 500 writes per flush): Storm-bound with a lull, then
#: idle with a flash crowd that throttles its one shard. An idle flow
#: with room for its flushes whose load steps over its one shard's
#: write cap, so the vector stretch ends on that cap. One whose
#: shard throttles a 500 s surge, so throttled stretches run while its
#: flushes (50 units) overflow the bucket now and then. Then a
#: controlled flow that injects every fault kind once. Then two deep VM
#: losses while Storm runs saturated off a backlogged stream, first
#: with no producer backlog, then (after the load outgrows the shards)
#: with one: each leaves Storm's queue above the new poll limit where
#: the next span starts, so the saturated and the throttled run test
#: must both refuse it.
EDGE_FLOWS = [
    Scenario(
        name="storm-bound-lull", duration=1800, seed=5, controller="fixed",
        control_period=600, shards=2, vms=1, write_units=46, key_skew=0.5, exact=False,
        workload=PatternSpec("step", {"base": 1600.0, "level": 400.0, "at": 900, "until": 1300}),
    ),
    Scenario(
        name="idle-flash-crowd", duration=1200, seed=5, controller="fixed",
        control_period=600, shards=1, vms=2, write_units=46, key_skew=0.5, exact=False,
        workload=PatternSpec("sum", inner=(
            PatternSpec("constant", {"value": 600.0}),
            PatternSpec("flash_crowd", {"peak": 2500.0, "at": 400, "rise_seconds": 5,
                                        "decay_seconds": 15}),
        )),
    ),
    Scenario(
        name="vector-write-cap", duration=1200, seed=5, controller="fixed",
        control_period=600, shards=1, vms=2, write_units=300, key_skew=0.5, exact=False,
        workload=PatternSpec("step", {"base": 600.0, "level": 1400.0, "at": 400, "until": 500}),
    ),
    Scenario(
        name="throttled-flush-edge", duration=1200, seed=5, controller="fixed",
        control_period=600, shards=1, vms=2, write_units=50, key_skew=0.5, exact=False,
        workload=PatternSpec("step", {"base": 600.0, "level": 1500.0, "at": 100, "until": 600}),
    ),
    Scenario(
        name="every-fault-kind", duration=1800, seed=5, controller="adaptive",
        control_period=120, shards=2, vms=2, write_units=300, key_skew=0.5, exact=False,
        workload=PatternSpec("sinusoid", {"mean": 1400.0, "amplitude": 500.0,
                                          "period": 1800, "phase": 0}),
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.RESHARD_STALL, start=100, duration=400, intensity=3.0),
            FaultSpec(FaultKind.SHARD_BROWNOUT, start=200, duration=200, intensity=0.4),
            FaultSpec(FaultKind.THROTTLE_STORM, start=300, duration=400, intensity=0.6),
            FaultSpec(FaultKind.WORKER_CRASH, start=500, intensity=1.0),
            FaultSpec(FaultKind.UPDATE_REJECT, start=600, duration=300),
            FaultSpec(FaultKind.METRIC_DELAY, start=800, duration=300, intensity=180.0),
            FaultSpec(FaultKind.REBALANCE_FAIL, start=1000, duration=120),
            FaultSpec(FaultKind.METRIC_DROPOUT, start=1200, duration=300),
        ), seed=3),
    ),
    Scenario(
        name="deep-vm-loss", duration=1800, seed=5, controller="fixed",
        control_period=600, shards=45, vms=40, write_units=1000, key_skew=0.5, exact=False,
        workload=PatternSpec("step", {"base": 42000.0, "level": 47000.0, "at": 700,
                                      "until": 1800}),
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.WORKER_CRASH, start=300, intensity=33.0),
            FaultSpec(FaultKind.WORKER_CRASH, start=1321, intensity=7.0),
        ), seed=3),
    ),
]


def test_span_execution_matches_per_tick_loop(monkeypatch):
    calls = _log_stretches(monkeypatch)
    exits = _closed_form_exits(monkeypatch)
    reached = Counter()

    @PROFILE
    @given(scenario=runnable_scenarios())
    @example(scenario=EDGE_FLOWS[0])
    @example(scenario=EDGE_FLOWS[1])
    @example(scenario=EDGE_FLOWS[2])
    @example(scenario=EDGE_FLOWS[3])
    @example(scenario=EDGE_FLOWS[4])
    @example(scenario=EDGE_FLOWS[5])
    def check(scenario):
        results = []
        for spans in (False, True):
            manager = scenario.build_manager()
            manager.engine.span_execution = spans
            manager.invariant_checker._strict = True
            calls.clear()
            results.append(manager.run(scenario.duration))
        reference, spanned = results
        assert spanned.invariants.checks < reference.invariants.checks, "spans never ran"
        assert_equivalent(reference, spanned, events=True)
        reached.update(_paths(calls, spanned))

    check()
    # A stop the exit oracle names as neither the span end nor a flush
    # overflow is an exit of the closed form's regime.
    reached.update(
        f"{kind}-exit"
        for kind, stops in exits.items()
        for why in stops
        if why not in ("span-end", "overflow")
    )
    missing = sorted(REQUIRED_PATHS - set(reached))
    assert not missing, f"the corpus never reached {missing}; reached {dict(reached)}"


@st.composite
def scenario_batches(draw):
    """Three generated scenarios under their own names: one fast, one
    exact and one as drawn."""
    fast, exact, drawn = (draw(runnable_scenarios()) for _ in range(3))
    return [
        dataclasses.replace(fast, name="fuzz-fast", exact=False),
        dataclasses.replace(exact, name="fuzz-exact", exact=True),
        dataclasses.replace(drawn, name="fuzz-drawn"),
    ]


@settings(PROFILE, max_examples=4)
@given(batch=scenario_batches())
def test_scenario_runner_jobs_one_matches_jobs_two(batch):
    serial = run_catalog(batch, jobs=1)
    parallel = run_catalog(batch, jobs=2)
    assert [e.card.exact for e in serial.entries.values()][:2] == [False, True]
    assert repr(serial.entries) == repr(parallel.entries)


def _fleet_flow(scenario: Scenario, name: str, duration: int, share_bounds) -> FleetFlowSpec:
    """``scenario``'s flow as one flow of a region fleet running
    ``duration`` seconds under ``share_bounds``: its workload,
    capacities, controllers and chaos, with the same Storm and table
    calibration."""
    return FleetFlowSpec(
        name=name,
        workload=scenario.workload.build(scenario.seed, duration),
        capacities=ServiceCapacities(
            shards=scenario.shards, vms=scenario.vms, write_units=scenario.write_units
        ),
        controls={
            kind: LayerControlConfig(
                controller=make_controller(scenario.controller, kind, scenario.reference),
                period=scenario.control_period,
            )
            for kind in LayerKind
        },
        share_bounds=share_bounds,
        chaos=scenario.chaos,
        storm=StormConfig(records_per_vm_per_second=RECORDS_PER_UNIT),
        dynamodb=DynamoDBConfig(burst_seconds=10),
    )


@st.composite
def runnable_fleets(draw):
    """Two or three flows drawn by :func:`runnable_scenarios`, on the
    fast path, in one region whose account limits leave at most three
    instances and shards, and 400 write units, above the flows'
    starting capacities, with contention from half the pool. The flows
    split the limits (the default share bounds) or each may take all
    of them, so the region denies what the limits cannot hold."""
    duration = draw(st.integers(min_value=600, max_value=1800))
    scenarios = draw(st.lists(runnable_scenarios(), min_size=2, max_size=3))
    limits = RegionLimits(
        max_instances=sum(s.vms for s in scenarios) + draw(st.integers(0, 3)),
        max_total_shards=sum(s.shards for s in scenarios) + draw(st.integers(0, 3)),
        max_total_write_units=sum(s.write_units for s in scenarios) + draw(st.integers(0, 400)),
        contention_threshold=0.5,
        contention_slope=0.4,
    )
    overcommitted = {
        LayerKind.INGESTION: limits.max_total_shards,
        LayerKind.ANALYTICS: limits.max_instances,
        LayerKind.STORAGE: limits.max_total_write_units,
    }
    share_bounds = draw(st.sampled_from([None, overcommitted]))
    return FleetScenarioSpec(
        name="fuzz-fleet",
        flows=[
            _fleet_flow(s, f"flow{i}", duration, share_bounds) for i, s in enumerate(scenarios)
        ],
        limits=limits,
        duration=duration,
        coordinate_period=draw(st.sampled_from([None, 300])),
        exact=False,
    )


def test_fleet_span_execution_matches_per_tick_loop(monkeypatch):
    exits = _closed_form_exits(monkeypatch)
    hoisted = []
    run_span = _FlowPipeline.run_span

    def logged(pipeline, clock, span_end):
        # A boot ripe at the sub-span's first tick, hoisted into a span
        # longer than that tick.
        boot = pipeline.cluster.fleet.next_capacity_event(clock.now)
        first_tick = clock.now + clock.tick_seconds
        if boot is not None and boot <= first_tick < span_end:
            hoisted.append(clock.now)
        run_span(pipeline, clock, span_end)

    monkeypatch.setattr(_FlowPipeline, "run_span", logged)

    @settings(PROFILE, max_examples=8)
    @given(spec=runnable_fleets(), seed=st.integers(min_value=0, max_value=2**16))
    def check_fleet(spec, seed):
        results = []
        for spans in (False, True):
            fleet = spec.build(seed)
            fleet.engine.span_execution = spans
            for manager in fleet.managers.values():
                manager.invariant_checker._strict = True
            results.append(fleet.run(spec.duration))
            assert fleet.engine.last_run_used_spans == spans
        reference, spanned = results
        for name in reference.flows:
            assert_equivalent(reference.flows[name], spanned.flows[name], events=True)
        assert spanned.region.denial_counts == reference.region.denial_counts
        if spec.coordinate_period is not None:
            assert spanned.coordinator.records == reference.coordinator.records

    check_fleet()
    assert hoisted, "no flow's sub-span started on a VM boot"
    assert any(exits.values()), "no closed form ran"
