"""Run persistence: save a finished run's artefacts to disk.

A run that only lives in memory cannot be compared against last week's.
``save_run`` writes the standard artefact set — per-layer capacity,
utilisation and throttle traces as CSV, the run summary as JSON, and
the rendered dashboard as text — into a directory; ``load_run_traces``
reads the traces back for offline analysis or trace replay
(:class:`~repro.workload.generators.TracePattern`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.summary import summarize_run
from repro.core.errors import ConfigurationError
from repro.core.flow import LayerKind
from repro.core.manager import FlowRunResult
from repro.workload.traces import Trace

#: Trace kinds written per layer.
_TRACE_KINDS = ("capacity", "utilization", "throttle")


def save_run(result: FlowRunResult, directory: str | Path, slo_utilization: float = 85.0) -> Path:
    """Persist a run's artefacts; returns the directory written.

    Layout::

        <dir>/summary.json                      # totals + per-layer numbers
        <dir>/dashboard.txt                     # the all-in-one-place view
        <dir>/<layer>_<kind>.csv                # nine traces (3 layers x 3 kinds)

    The CSV traces and the summary read the same series on the same
    period grid, so each series is aggregated once (the metric store
    memoizes reads per frame version; nothing writes after a run).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    for kind in LayerKind:
        layer = kind.name.lower()
        result.capacity_trace(kind).to_csv(directory / f"{layer}_capacity.csv")
        result.utilization_trace(kind).to_csv(directory / f"{layer}_utilization.csv")
        result.throttle_trace(kind).to_csv(directory / f"{layer}_throttle.csv")

    summary = summarize_run(result, slo_utilization=slo_utilization)
    payload = {
        "flow": result.flow.name,
        "duration_seconds": result.duration_seconds,
        "total_cost": summary.total_cost,
        "dropped_records": summary.dropped_records,
        "dropped_writes": summary.dropped_writes,
        "slo_utilization": slo_utilization,
        "layers": {
            layer.kind.name.lower(): {
                "mean_utilization": layer.mean_utilization,
                "violation_rate": layer.violation_rate,
                "throttled_total": layer.throttled_total,
                "capacity_min": layer.capacity_min,
                "capacity_max": layer.capacity_max,
                "controller_actions": layer.controller_actions,
                "cost": layer.cost,
            }
            for layer in summary.layers
        },
    }
    with open(directory / "summary.json", "w") as f:
        json.dump(payload, f, indent=2)
    (directory / "dashboard.txt").write_text(result.dashboard() + "\n")
    return directory


def load_run_traces(directory: str | Path) -> dict[tuple[LayerKind, str], Trace]:
    """Read back the traces written by :func:`save_run`.

    Returns ``{(layer, kind): trace}`` for every trace file present.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"{directory} is not a directory")
    traces: dict[tuple[LayerKind, str], Trace] = {}
    for kind in LayerKind:
        for trace_kind in _TRACE_KINDS:
            path = directory / f"{kind.name.lower()}_{trace_kind}.csv"
            if path.exists():
                traces[(kind, trace_kind)] = Trace.from_csv(path)
    if not traces:
        raise ConfigurationError(f"no run traces found in {directory}")
    return traces


def load_run_summary(directory: str | Path) -> dict:
    """Read back the summary written by :func:`save_run`."""
    path = Path(directory) / "summary.json"
    if not path.exists():
        raise ConfigurationError(f"no summary.json in {directory}")
    with open(path) as f:
        return json.load(f)
