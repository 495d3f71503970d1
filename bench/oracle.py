"""Output digests: the benchmark's check that a run produced the right result.

One operation is one flow's run (or one catalog scenario's run). Its
digest is a sha256 over everything the run produced: every metric
series bit for bit (timestamps and float64 values as raw bytes, so a
single ULP of drift anywhere changes the hash), the cost meters'
internal accumulators and the drop counters. Catalog scenarios are
digested through their wall-clock-free scorecard entry, which is the
artifact the catalog gate compares.

``expected.json`` holds the committed digests, per workload and seed;
see README.md for how to regenerate them deliberately.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def flow_digest(result) -> str:
    """Digest of one finished flow (a ``FlowRunResult``)."""
    store = result.cloudwatch
    store.flush_pending()
    h = hashlib.sha256()
    for key in sorted(store._series):
        series = store._series[key]
        h.update(repr(key).encode())
        h.update(series.times.tobytes())
        h.update(series.values.tobytes())
    costs = sorted(
        (name, repr(meter._unit_seconds), repr(meter._usage_volume), repr(meter.total_cost))
        for name, meter in result.cost_meters.items()
    )
    h.update(repr(costs).encode())
    h.update(f"dropped={result.dropped_records},{result.dropped_writes}".encode())
    return h.hexdigest()


def catalog_digest(entry) -> str:
    """Digest of one catalog scenario's ``CatalogEntry``."""
    return hashlib.sha256(json.dumps(entry.to_dict(), sort_keys=True).encode()).hexdigest()


def load_expected(path: str | Path = EXPECTED_PATH) -> dict:
    """``{workload: {seed: {operation: digest}}}``; empty if the file is absent."""
    path = Path(path)
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def expected_for(expected: dict, workload: str, seed: int, horizon: int) -> dict | None:
    """The recorded digests for one run, or None when none were recorded.

    Digests depend on the horizon too, so a record made at another
    horizon (a shortened self-test run) never gates this one.
    """
    entry = expected.get(workload, {}).get(str(seed))
    if entry is None or entry.get("horizon") != horizon:
        return None
    return entry["digests"]


def record(expected: dict, workload: str, seed: int, horizon: int, digests: dict) -> None:
    """Store one run's digests into an expected-digest mapping."""
    expected.setdefault(workload, {})[str(seed)] = {
        "horizon": horizon,
        "digests": dict(sorted(digests.items())),
    }


def save(expected: dict, path: str | Path) -> None:
    with open(path, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
