"""Throughput ratios on the pinned workloads: one table, two tiers.

Absolute speed is the pinned benchmark's job (``bench/``,
``BENCHMARK.json``). This file checks only ratios between two legs
timed in one process, which hold on any host. Each row runs its two
legs interleaved, best of 2, so drift in machine load hits both alike,
and asserts ``best(numerator) / best(denominator) >= bound``.

Flow rows build ``bench.workloads.WORKLOADS[name].build(SEED, horizon)``;
a per-tick leg turns span execution off as ``bench/rep.py`` does. Fleet
rows use the fingerprint fleet (``_fleet_fingerprint.build_fleet``),
because its width can vary and ``fleet-16``'s cannot. ``bench/`` is
imported, never changed.

Usage::

    python -m pytest benchmarks/test_bench_ratios.py -k smoke   # CI
    python -m pytest benchmarks/test_bench_ratios.py -k full    # pinned horizons
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import pytest

from bench.oracle import flow_digest
from bench.workloads import WORKLOADS
from benchmarks._fleet_fingerprint import build_fleet

from repro.cloud import MetricAlarm
from repro.cloud.dynamodb import NAMESPACE as DDB_NS
from repro.cloud.kinesis import NAMESPACE as KINESIS_NS
from repro.cloud.storm import NAMESPACE as STORM_NS
from repro.scenarios import run_catalog

SEED = 7


def _timed(run: Callable[[], object], flow_ticks: int) -> float:
    """Flow-ticks per wall second of ``run()``."""
    started = time.perf_counter()
    run()
    return flow_ticks / (time.perf_counter() - started)


def flow(name: str, horizon: int, *, spans: bool = True, alarms: bool = False) -> float:
    """One run of a pinned single-flow workload."""
    manager = WORKLOADS[name].build(SEED, horizon)
    manager.engine.span_execution = spans
    if alarms:
        # The run loop alone never reads period statistics; co-located
        # alarms do, every 30 s, over a history that grows with the run.
        for namespace, metric, dims in (
            (KINESIS_NS, "WriteUtilization", {"StreamName": manager.stream.name}),
            (STORM_NS, "CPUUtilization", {"Topology": manager.cluster.name}),
            (DDB_NS, "WriteUtilization", {"TableName": manager.table.name}),
        ):
            manager.cloudwatch.put_alarm(MetricAlarm(
                name=f"high-{metric}", namespace=namespace, metric_name=metric,
                threshold=90.0, period=30, evaluation_periods=2, dimensions=dims,
            ))
        manager.engine.every(30, manager.cloudwatch.evaluate_alarms, name="alarms")
    return _timed(partial(manager.run, horizon), horizon)


def fleet(flows: int, duration: int, *, span: bool = True) -> float:
    """One run of the fingerprint fleet at ``flows`` wide."""
    return _timed(partial(build_fleet(flows, span=span).run, duration), flows * duration)


def sweep(jobs: int) -> float:
    """One ``run_catalog`` of ``catalog-smoke`` on ``jobs`` worker processes."""
    workload = WORKLOADS["catalog-smoke"]
    scenarios = workload.build(SEED, workload.horizon)
    return _timed(partial(run_catalog, scenarios, jobs=jobs), len(scenarios) * workload.horizon)


@dataclass(frozen=True)
class Row:
    """``best(numerator) / best(denominator) >= bound`` over two
    interleaved runs of each leg, on hosts with at least ``cores`` CPUs."""

    name: str
    tier: str
    numerator: Callable[[], float]
    denominator: Callable[[], float]
    bound: float
    cores: int = 1


ROWS = [
    # Metric reads cost O(log history): a 4x or 16x longer run keeps
    # its throughput instead of going quadratic.
    Row("horizon", "smoke", partial(flow, "flow-fast", 57_600, alarms=True),
        partial(flow, "flow-fast", 3_600, alarms=True), 0.35),
    Row("horizon-4x", "full", partial(flow, "flow-fast", 64_800, alarms=True),
        partial(flow, "flow-fast", 16_200, alarms=True), 0.5),
    Row("horizon-16x", "full", partial(flow, "flow-fast", 259_200, alarms=True),
        partial(flow, "flow-fast", 16_200, alarms=True), 0.8),
    # Span execution against the per-tick loop on the exact path, where
    # the generator's per-tick draws take most of the wall time.
    Row("span", "smoke", partial(flow, "flow-exact", 3_600),
        partial(flow, "flow-exact", 3_600, spans=False), 1.25),
    Row("span", "full", partial(flow, "flow-exact", 86_400),
        partial(flow, "flow-exact", 86_400, spans=False), 1.6),
    # The approximate workload path against the exact one.
    Row("fast", "smoke", partial(flow, "flow-fast", 3_600),
        partial(flow, "flow-exact", 3_600), 2.0),
    Row("fast", "full", partial(flow, "flow-fast", 86_400),
        partial(flow, "flow-exact", 86_400), 3.0),
    # The fleet span executor against the per-tick loop, and per-flow
    # throughput from 1 to 16 flows wide.
    Row("fleet", "smoke", partial(fleet, 4, 1_800), partial(fleet, 4, 1_800, span=False), 2.0),
    Row("fleet", "full", partial(fleet, 16, 3_600), partial(fleet, 16, 3_600, span=False), 5.0),
    Row("fleet-width", "full", partial(fleet, 16, 3_600), partial(fleet, 1, 3_600), 0.8),
    # Process-parallel scenario runs scale where the host has the cores.
    Row("sweep", "full", partial(sweep, 4), partial(sweep, 1), 1.5, cores=4),
]


@pytest.mark.parametrize("row", ROWS, ids=[f"{row.tier}-{row.name}" for row in ROWS])
def test_ratio(row: Row):
    if (os.cpu_count() or 1) < row.cores:
        pytest.skip(f"needs {row.cores} cores to show a speed-up")
    numerator = denominator = 0.0
    for _ in range(2):
        numerator = max(numerator, row.numerator())
        denominator = max(denominator, row.denominator())
    ratio = numerator / denominator
    print(f"\n{row.tier}-{row.name}: {numerator:,.0f} / {denominator:,.0f} = "
          f"{ratio:.2f} (bound {row.bound:.2f})")
    assert ratio >= row.bound, (
        f"{row.name}: {numerator:,.0f} vs {denominator:,.0f} flow-ticks/s is "
        f"{ratio:.2f}x, below the {row.bound:.2f}x bound"
    )


#: ``(tier, flows, exact, duration)``: fleets whose every flow must
#: digest the same with span execution and with the per-tick loop.
IDENTITY = [("smoke", 4, False, 1_800), ("full", 16, False, 1_800), ("full", 16, True, 900)]


@pytest.mark.parametrize(
    "tier, flows, exact, duration", IDENTITY,
    ids=[f"{tier}-identity-{flows}-{'exact' if exact else 'fast'}"
         for tier, flows, exact, _ in IDENTITY],
)
def test_fleet_identity(tier, flows, exact, duration):
    digests = []
    for span in (True, False):
        result = build_fleet(flows, span=span, exact=exact).run(duration)
        digests.append({name: flow_digest(out) for name, out in result.flows.items()})
    assert digests[0] == digests[1]
