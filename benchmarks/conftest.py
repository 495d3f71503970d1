"""Shared fixtures and helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's figures/tables (see
DESIGN.md's experiment index) and writes its report to ``results/`` so
EXPERIMENTS.md can quote the measured rows; the CI smoke variants write
theirs through :func:`smoke_report` instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def smoke_report(tmp_path):
    """Write a smoke benchmark's JSON report and echo it to stdout.

    Smoke variants run on every CI push and measure the runner they land
    on, so their reports go under pytest's temp dir, never ``results/``:
    running CI's commands locally must leave the committed tree clean.
    """

    def write(name: str, report: dict) -> Path:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\n{json.dumps(report, indent=2)}\n[report written to {path}]")
        return path

    return write


def write_report(results_dir: Path, name: str, text: str) -> None:
    """Persist a benchmark's report and echo it to stdout."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")


def fig2_workload(horizon: int, seed: int = 7):
    """The Fig. 2 style workload: slow drift + bursts + minute noise.

    Calibrated to stay below one shard's write capacity so the fixed
    one-VM analytics layer sees the raw workload shape (Fig. 2 was
    measured on a statically provisioned flow).
    """
    from repro.simulation import derive_rng
    from repro.workload import BurstyRate, NoisyRate, SinusoidalRate

    base = SinusoidalRate(mean=500.0, amplitude=280.0, period=horizon, phase=horizon // 4)
    bursty = BurstyRate(
        base,
        derive_rng(seed, "fig2.bursts"),
        horizon=horizon,
        bursts_per_hour=0.8,
        multiplier=1.5,
        duration_seconds=420,
    )
    return NoisyRate(bursty, derive_rng(seed, "fig2.noise"), horizon=horizon, sigma=0.12)


def static_fig2_run(duration: int = 550 * 60, seed: int = 7):
    """Run the click-stream flow with static capacity (no controllers).

    The click catalogue is sized so that a 10-second aggregation window
    saturates the hot-page set, reproducing the paper's observation
    that storage writes decouple from raw click volume.
    """
    from repro import FlowBuilder
    from repro.workload import ClickStreamConfig

    manager = (
        FlowBuilder("fig2", seed=seed)
        .ingestion(shards=1)
        .analytics(vms=1)
        .storage(write_units=300)
        .workload(
            fig2_workload(duration, seed),
            clickstream=ClickStreamConfig(catalog_pages=150),
        )
        .build()
    )
    return manager.run(duration)
