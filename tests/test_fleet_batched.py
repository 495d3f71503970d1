"""Fleet span execution vs the per-tick reference, bit for bit.

The span execution contract (DESIGN.md): a :class:`RegionFleetManager`
runs every flow through one
:class:`~repro.core.fleet_exec.FleetSpanExecutor` component, and with
span execution every flow's metrics, costs and events must be
**bit-identical** to the per-tick reference loop
(``span_execution=False``) — under chaos faults, region denials,
coordination, and on both the exact and fast workload paths. Equality
is asserted on reprs (metric values), exact cost-meter internals, and
per-flow event lists, so a single ULP drift anywhere fails loudly.

Also here: the :class:`RegionContext` capacity-sum memoization
regression tests (satellite of the same PR) — the memo must invalidate
on every committed-capacity change and must *not* recompute between
changes.
"""

import pytest

from repro.chaos import ChaosSchedule, FaultKind, FaultSpec
from repro.cloud.region import RegionContext, RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, default_adaptive_controller
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.core.fleet_exec import FleetSpanExecutor
from repro.core.flow import LayerKind
from repro.core.manager import _FlowPipeline
from repro.workload.generators import SinusoidalRate

DURATION = 1800


def _controls():
    return {
        kind: LayerControlConfig(
            controller=default_adaptive_controller(kind), period=60
        )
        for kind in LayerKind
    }


def _build(
    n,
    *,
    exact,
    span=True,
    coordinate=300,
    chaos=None,
    tight=False,
    seed=7,
):
    """A small region fleet; ``chaos`` lands on the first flow only."""
    if tight:
        # Undersized account: flows fight for headroom and take real
        # RegionCapacityError denials mid-run.
        limits = RegionLimits(
            max_instances=2 * n,
            max_total_shards=2 * n,
            max_total_write_units=400 * n,
            contention_threshold=0.7,
            contention_slope=0.3,
        )
        # Oversubscribed grants — each flow may ask for the *whole*
        # account, so the region (not the per-flow bounded actuators)
        # is what actually arbitrates, and denials become reachable.
        share_bounds = {
            LayerKind.INGESTION: limits.max_total_shards,
            LayerKind.ANALYTICS: limits.max_instances,
            LayerKind.STORAGE: limits.max_total_write_units,
        }
    else:
        share_bounds = None
    flows = [
        FleetFlowSpec(
            name=f"flow{i:02d}",
            workload=SinusoidalRate(
                mean=1500.0 + 200.0 * i,
                amplitude=900.0,
                period=DURATION,
                phase=(DURATION // n) * i,
            ),
            controls=_controls(),
            chaos=chaos if i == 0 else None,
            storm=StormConfig(records_per_vm_per_second=800),
            share_bounds=share_bounds,
        )
        for i in range(n)
    ]
    if not tight:
        limits = RegionLimits(
            max_instances=6 * n,
            max_total_shards=6 * n,
            max_total_write_units=2000 * n,
            contention_threshold=0.85,
            contention_slope=0.3,
        )
    return RegionFleetManager(
        flows,
        limits=limits,
        seed=seed,
        exact=exact,
        span_execution=span,
        coordinate_period=coordinate,
    )


def _flow_digests(fleet, result):
    """Per-flow (series, costs, events, drops) — everything observable."""
    digests = {}
    for name, flow_result in result.flows.items():
        store = fleet.managers[name].cloudwatch
        series = {}
        for key in sorted(store._series):
            s = store._series[key]
            series[key] = (
                s.times.tolist(),
                repr(s.values.tolist()),
            )
        costs = sorted(
            (kind, meter._unit_seconds, meter._usage_volume, meter.total_cost)
            for kind, meter in flow_result.cost_meters.items()
        )
        events = None
        if flow_result.recorder is not None:
            events = [
                (e.time, e.kind, repr(sorted(e.payload.items())))
                for e in flow_result.recorder.events
            ]
        violations = None
        if flow_result.invariants is not None:
            # Violation *totals*, not check counts: span execution checks
            # at boundaries, the per-tick loop checks every tick, so the
            # number of checks legitimately differs between modes.
            violations = flow_result.invariants.total_violations
        digests[name] = {
            "series": series,
            "costs": repr(costs),
            "events": events,
            "violations": violations,
            "dropped_records": flow_result.dropped_records,
            "dropped_writes": flow_result.dropped_writes,
        }
    return digests


def _assert_equivalent(n, *, exact, coordinate=300, chaos=None, tight=False):
    spanned = _build(n, exact=exact, coordinate=coordinate, chaos=chaos, tight=tight)
    result_s = spanned.run(DURATION)
    reference = _build(
        n, exact=exact, span=False, coordinate=coordinate, chaos=chaos, tight=tight
    )
    result_r = reference.run(DURATION)
    assert spanned.engine.last_run_used_spans
    assert not reference.engine.last_run_used_spans

    da, db = _flow_digests(spanned, result_s), _flow_digests(reference, result_r)
    assert sorted(da) == sorted(db)
    for name in da:
        a, b = da[name], db[name]
        assert sorted(a["series"]) == sorted(b["series"]), name
        for key in a["series"]:
            assert a["series"][key] == b["series"][key], (name, key)
        assert a["costs"] == b["costs"], name
        assert a["events"] == b["events"], name
        assert a["violations"] == b["violations"], name
        assert a["dropped_records"] == b["dropped_records"], name
        assert a["dropped_writes"] == b["dropped_writes"], name
    assert dict(spanned.region.denial_counts) == dict(reference.region.denial_counts)
    return spanned, reference


class TestBatchedEquivalence:
    def test_fast_two_flows(self):
        _assert_equivalent(2, exact=False)

    def test_fast_four_flows(self):
        _assert_equivalent(4, exact=False)

    def test_exact_two_flows(self):
        _assert_equivalent(2, exact=True)

    def test_coordinator_off(self):
        _assert_equivalent(2, exact=False, coordinate=None)

    def test_mid_run_region_denials(self):
        spanned, _ = _assert_equivalent(3, exact=False, tight=True)
        # The tight account must actually deny something, or this case
        # degenerates into the healthy-fleet test.
        assert spanned.region.total_denials() > 0

    def test_contended_fleet_runs_saturated_stretches(self, monkeypatch):
        """Flows on an undersized account run Storm at capacity with a
        backlogged stream: the executor's sub-spans take the saturated
        closed form, and every flow stays bit-identical."""
        in_executor = []  # one entry per saturated stretch
        inside = []
        closed_form = _FlowPipeline._closed_form
        run_span = FleetSpanExecutor.run_span

        def logged_closed_form(self, span, start, stop, saturated, producer):
            if saturated and producer is None:  # a saturated stretch
                in_executor.append(bool(inside))
            return closed_form(self, span, start, stop, saturated, producer)

        def logged_run_span(self, clock, span_end):
            inside.append(True)
            try:
                run_span(self, clock, span_end)
            finally:
                inside.pop()

        monkeypatch.setattr(_FlowPipeline, "_closed_form", logged_closed_form)
        monkeypatch.setattr(FleetSpanExecutor, "run_span", logged_run_span)
        _assert_equivalent(3, exact=False, tight=True)
        assert in_executor, "no saturated stretch ran"
        assert all(in_executor)

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_each_chaos_fault_kind(self, kind):
        intensities = {
            FaultKind.RESHARD_STALL: 3.0,
            FaultKind.SHARD_BROWNOUT: 0.4,
            FaultKind.WORKER_CRASH: 1.0,
            FaultKind.THROTTLE_STORM: 0.5,
            FaultKind.METRIC_DELAY: 120.0,
        }
        spec = FaultSpec(
            kind,
            start=400 if kind is FaultKind.WORKER_CRASH else 300,
            duration=0 if kind is FaultKind.WORKER_CRASH else 600,
            intensity=intensities.get(kind, 0.0),
        )
        chaos = ChaosSchedule(faults=(spec,), seed=11)
        _assert_equivalent(2, exact=False, chaos=chaos)


class _StubFleet:
    def __init__(self, count):
        self.count = count
        self.calls = 0

    def provisioned_count(self, now):
        self.calls += 1
        return self.count


class TestRegionSumMemo:
    def test_memo_avoids_recompute_between_changes(self):
        region = RegionContext(limits=RegionLimits())
        stub = _StubFleet(5)
        region.register("instances", "f0", stub.provisioned_count)
        assert region.in_use("instances", now=10) == 5
        calls = stub.calls
        assert region.in_use("instances", now=20) == 5
        assert stub.calls == calls  # served from the version memo

    def test_memo_invalidates_on_capacity_change(self):
        region = RegionContext(limits=RegionLimits())
        stub = _StubFleet(5)
        region.register("instances", "f0", stub.provisioned_count)
        assert region.in_use("instances", now=10) == 5
        stub.count = 9
        # Without a version bump the memo (correctly) still serves the
        # committed value as of the last change...
        assert region.in_use("instances", now=11) == 5
        # ...and the services' capacity-change hook invalidates it.
        region.note_capacity_change()
        assert region.in_use("instances", now=12) == 9

    def test_real_scale_up_is_visible_immediately(self):
        """End to end: an admitted scale-up must not be served stale —
        a second flow asking right after must see the new commitment."""
        fleet = _build(2, exact=False)
        region = fleet.region
        manager = next(iter(fleet.managers.values()))
        ec2 = manager.cluster.fleet
        before = region.in_use("instances", now=0)
        ec2.set_desired(before_count := ec2.provisioned_count(0), now=0)
        ec2.set_desired(before_count + 1, now=0)
        assert region.in_use("instances", now=0) == before + 1
