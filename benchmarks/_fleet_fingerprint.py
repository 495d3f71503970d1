"""Per-flow bit-exact fingerprint of a region fleet run.

The span execution contract (DESIGN.md) promises that span execution
and the per-tick reference loop produce **bit-identical per-flow
results**. This script runs one fleet scenario and prints a sha256 per
flow (over every metric series at full repr precision, the cost-meter
internals and the drop counters) plus a combined hash — run it once
per mode and diff the output.

Usage::

    python benchmarks/_fleet_fingerprint.py [BLOB_OUT] [--reference]

``--reference`` runs the per-tick loop. Matching hashes across both
invocations is the fleet equivalence check the CI benchmark-smoke job
performs.
"""

import hashlib
import json
import sys
import time

from repro.cloud.region import RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, default_adaptive_controller
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.core.flow import LayerKind
from repro.workload import SinusoidalRate

SEED = 7
CONTROL_PERIOD = 300
SNAPSHOT_PERIOD = 600
DURATION = 1800
FLOWS = 4


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


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    span = "--reference" not in sys.argv[1:]
    fleet = build_fleet(FLOWS, span=span)
    started = time.perf_counter()
    fleet.run(DURATION)
    elapsed = time.perf_counter() - started

    blobs: dict[str, bytes] = {}
    for name, manager in sorted(fleet.managers.items()):
        store = manager.cloudwatch
        lines = []
        for key in sorted(store._series):
            s = store._series[key]
            lines.append(
                f"{key!r} times={s.times.tolist()!r} "
                f"values={[repr(v) for v in s.values.tolist()]!r}"
            )
        pipeline = manager._pipeline
        costs = sorted(
            (kind, repr(meter._unit_seconds), repr(meter._usage_volume),
             repr(meter.total_cost))
            for kind, meter in pipeline.cost_meters.items()
        )
        lines.append(f"cost={costs!r}")
        lines.append(f"dropped={pipeline.dropped_records},{pipeline.dropped_writes}")
        blobs[name] = "\n".join(lines).encode()

    combined = hashlib.sha256()
    flows = {}
    for name, blob in sorted(blobs.items()):
        digest = hashlib.sha256(blob).hexdigest()
        flows[name] = digest
        combined.update(name.encode())
        combined.update(digest.encode())
    print(
        json.dumps(
            {
                "sha256": combined.hexdigest(),
                "flows": flows,
                "wall_seconds": round(elapsed, 3),
                "span_execution": span,
            }
        )
    )
    out = args[0] if args else None
    if out:
        with open(out, "wb") as f:
            f.write(b"\n\n".join(blobs[name] for name in sorted(blobs)))


if __name__ == "__main__":
    main()
