"""Tests for run persistence."""

import json

import pytest

from repro import FlowBuilder, LayerKind
from repro.analysis import load_run_summary, load_run_traces, save_run
from repro.core.errors import ConfigurationError
from repro.workload import ConstantRate, TracePattern


@pytest.fixture(scope="module")
def finished_run():
    return (
        FlowBuilder("persisted", seed=3)
        .workload(ConstantRate(700))
        .control_all(style="adaptive")
        .build()
        .run(900)
    )


class TestSaveRun:
    def test_writes_standard_artefacts(self, finished_run, tmp_path):
        directory = save_run(finished_run, tmp_path / "run1")
        names = {p.name for p in directory.iterdir()}
        assert "summary.json" in names
        assert "dashboard.txt" in names
        assert "ingestion_capacity.csv" in names
        assert "storage_throttle.csv" in names
        assert len([n for n in names if n.endswith(".csv")]) == 9

    def test_summary_contents(self, finished_run, tmp_path):
        directory = save_run(finished_run, tmp_path / "run2")
        with open(directory / "summary.json") as f:
            payload = json.load(f)
        assert payload["flow"] == "persisted"
        assert payload["duration_seconds"] == 900
        assert payload["total_cost"] > 0
        assert set(payload["layers"]) == {"ingestion", "analytics", "storage"}
        assert payload["layers"]["analytics"]["controller_actions"] >= 0

    def test_creates_nested_directories(self, finished_run, tmp_path):
        directory = save_run(finished_run, tmp_path / "deep" / "nested" / "run")
        assert directory.is_dir()


class TestLoadRun:
    def test_traces_roundtrip(self, finished_run, tmp_path):
        directory = save_run(finished_run, tmp_path / "run3")
        traces = load_run_traces(directory)
        assert len(traces) == 9
        capacity = traces[(LayerKind.INGESTION, "capacity")]
        original = finished_run.capacity_trace(LayerKind.INGESTION)
        assert capacity.values == original.values

    def test_summary_roundtrip(self, finished_run, tmp_path):
        directory = save_run(finished_run, tmp_path / "run4")
        summary = load_run_summary(directory)
        assert summary["flow"] == "persisted"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_run_traces(tmp_path / "nope")
        with pytest.raises(ConfigurationError):
            load_run_summary(tmp_path)

    def test_empty_directory_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ConfigurationError):
            load_run_traces(empty)

    def test_saved_trace_feeds_replay(self, finished_run, tmp_path):
        """A persisted utilisation trace can drive a replay workload."""
        directory = save_run(finished_run, tmp_path / "run5")
        trace = load_run_traces(directory)[(LayerKind.INGESTION, "utilization")]
        replay = TracePattern(trace)
        assert replay.rate(trace.times[0]) == trace.values[0]
