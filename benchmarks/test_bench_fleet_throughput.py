"""Fleet span execution throughput vs the per-tick reference.

A :class:`~repro.core.fleet.RegionFleetManager` owning N flows has two
execution paths, bit-identical per flow
(``tests/test_fleet_batched.py``, ``benchmarks/_fleet_fingerprint.py``):

* **span** (default) — one :class:`FleetSpanExecutor` runs every
  flow's data path per shared span, splitting each flow at its *own*
  capacity events only;
* **per-tick reference** (``span_execution=False``) — the plain tick
  loop, one pass over every flow per simulated second.

This benchmark runs the same region scenario through both modes at 1,
4 and 16 flows (interleaved best-of-2, so machine noise hits both
modes equally) and records the span-vs-per-tick ratio in
``results/BENCH_fleet.json`` (same convention as ``BENCH_span.json``).

The measured 16-flow runs are also diffed per flow (series, costs,
drops — repr-exact) between the two modes, on both the fast and exact
workload paths, so the recorded speedup is guaranteed to be a speedup
of the *same* results.

The reduced-scale smoke variant runs in the CI benchmark-smoke job.
"""

import json
import time

from repro.cloud.region import RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, default_adaptive_controller
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.core.flow import LayerKind
from repro.workload import SinusoidalRate

SEED = 7
DURATION = 3600
CONTROL_PERIOD = 300
SNAPSHOT_PERIOD = 600


def build_fleet(n: int, *, span: bool = True, exact: bool = False):
    """N staggered sinusoidal flows in one generously sized region."""
    flows = [
        FleetFlowSpec(
            name=f"fleet{i:02d}",
            workload=SinusoidalRate(
                mean=2000.0 + 100.0 * i,
                amplitude=400.0,
                period=1800,
                phase=(1800 // n) * i,
            ),
            controls={
                kind: LayerControlConfig(
                    controller=default_adaptive_controller(kind),
                    period=CONTROL_PERIOD,
                )
                for kind in LayerKind
            },
            storm=StormConfig(records_per_vm_per_second=800),
        )
        for i in range(n)
    ]
    limits = RegionLimits(
        max_instances=12 * n,
        max_total_shards=12 * n,
        max_total_write_units=4000 * n,
        contention_threshold=0.95,
        contention_slope=0.3,
    )
    return RegionFleetManager(
        flows,
        limits=limits,
        seed=SEED,
        exact=exact,
        span_execution=span,
        snapshot_period=SNAPSHOT_PERIOD,
    )


def run_once(n: int, *, span: bool = True, duration: int = DURATION):
    fleet = build_fleet(n, span=span)
    started = time.perf_counter()
    fleet.run(duration)
    return duration / (time.perf_counter() - started)


def flow_digests(fleet) -> dict:
    """Per-flow repr-exact digest of everything a run produced."""
    digests = {}
    for name, manager in fleet.managers.items():
        store = manager.cloudwatch
        series = {
            repr(key): (s.times.tolist(), repr(s.values.tolist()))
            for key, s in sorted(store._series.items())
        }
        pipeline = manager._pipeline
        costs = sorted(
            (kind, meter._unit_seconds, meter._usage_volume, meter.total_cost)
            for kind, meter in pipeline.cost_meters.items()
        )
        digests[name] = {
            "series": series,
            "costs": repr(costs),
            "dropped": (pipeline.dropped_records, pipeline.dropped_writes),
        }
    return digests


def assert_identical(n: int, *, exact: bool, duration: int) -> None:
    spanned = build_fleet(n, exact=exact)
    spanned.run(duration)
    reference = build_fleet(n, span=False, exact=exact)
    reference.run(duration)
    da, db = flow_digests(spanned), flow_digests(reference)
    assert sorted(da) == sorted(db)
    for name in da:
        assert da[name] == db[name], f"{name} diverged (exact={exact})"


def measure(scales, modes, *, duration: int, repeats: int = 2) -> dict:
    """Interleaved best-of-N: every mode sees the same noise regime."""
    best: dict = {mode: {n: 0.0 for n in scales} for mode, _ in modes}
    for _ in range(repeats):
        for mode, kwargs in modes:
            for n in scales:
                tps = run_once(n, duration=duration, **kwargs)
                if tps > best[mode][n]:
                    best[mode][n] = tps
    return best


MODES = [
    ("span", {"span": True}),
    ("per_tick", {"span": False}),
]


def test_fleet_throughput(results_dir):
    scales = (1, 4, 16)
    best = measure(scales, MODES, duration=DURATION)

    ratio_ref = best["span"][16] / best["per_tick"][16]

    # The recorded speedup must be a speedup of the *same* numbers:
    # per-flow repr-exact identity at full fleet width on both paths.
    assert_identical(16, exact=False, duration=1800)
    assert_identical(16, exact=True, duration=900)

    report = {
        "experiment": "fleet_throughput",
        "duration_seconds": DURATION,
        "tick_seconds": 1,
        "control_period": CONTROL_PERIOD,
        "seed": SEED,
        "ticks_per_sec": {
            mode: {f"{n}_flows": round(v, 1) for n, v in by_n.items()}
            for mode, by_n in best.items()
        },
        "speedup_vs_per_tick_16_flows": round(ratio_ref, 2),
        "per_flow_bit_identical": {"fast_16_flows": True, "exact_16_flows": True},
    }
    path = results_dir / "BENCH_fleet.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{json.dumps(report, indent=2)}\n[report written to {path}]")

    assert ratio_ref >= 5.0, (
        f"fleet span execution reached only {ratio_ref:.2f}x the per-tick "
        f"reference at 16 flows ({best['span'][16]:.0f} vs "
        f"{best['per_tick'][16]:.0f} t/s)"
    )
    # Span execution must not lose per-flow throughput as the fleet
    # grows: 16 flows do 16x the work per global tick, so compare
    # flow-ticks.
    assert 16 * best["span"][16] >= 0.8 * best["span"][1]


def test_fleet_throughput_smoke(results_dir):
    """Reduced-scale CI variant: 4 flows, 1800 s, generous bounds."""
    duration = 1800
    best = measure((4,), MODES, duration=duration)
    ratio_ref = best["span"][4] / best["per_tick"][4]

    assert_identical(4, exact=False, duration=duration)

    report = {
        "experiment": "fleet_throughput_smoke",
        "duration_seconds": duration,
        "ticks_per_sec": {mode: round(by_n[4], 1) for mode, by_n in best.items()},
        "speedup_vs_per_tick_4_flows": round(ratio_ref, 2),
    }
    path = results_dir / "BENCH_fleet_smoke.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{json.dumps(report, indent=2)}\n[report written to {path}]")

    assert ratio_ref >= 2.0, (
        f"fleet span execution reached only {ratio_ref:.2f}x the per-tick "
        "reference at smoke scale"
    )
