"""The curated scenario catalog: the manager's standing exam.

Nine named scenarios crossing workload shape × fault schedule × SLO ×
budget × controller style, each defined relative to its horizon so the
same scenario exists in two variants: ``smoke`` (2 simulated hours —
the CI ``gates`` workload) and ``full`` (a day or more — the
offline evaluation). Fault windows and workload landmarks are fractions
of the horizon, so both variants exercise the same story at different
scales.

Every scenario is pure data (:class:`~repro.scenarios.spec.Scenario`);
the committed per-scenario scorecard matrix in
``results/SCORECARD_catalog.json`` pins the smoke variant's numbers as
a regression gate.
"""

from __future__ import annotations

from repro.chaos.schedule import ChaosSchedule, FaultKind, FaultSpec
from repro.core.errors import ConfigurationError
from repro.scenarios.spec import PatternSpec, Scenario, SLOTargets

#: Horizon (simulated seconds) per catalog variant.
VARIANT_DURATIONS = {"smoke": 2 * 3600, "full": 24 * 3600}

#: Scenarios that only show their shape over several days get a longer
#: full-variant horizon.
_LONG_FULL = {"seasonal-drift": 3 * 24 * 3600, "weekend-retail": 7 * 24 * 3600}


def _flash_crowd_throttle_storm(d: int, seed: int) -> Scenario:
    return Scenario(
        name="flash-crowd-throttle-storm",
        description="A page goes viral exactly while storage is throttling: "
                    "the flash crowd lands inside a throttle-storm window.",
        workload=PatternSpec("sum", inner=(
            PatternSpec("constant", {"value": 900.0}),
            PatternSpec("flash_crowd", {"peak": 2600.0, "at": 3 * d // 8,
                                        "rise_seconds": max(60, d // 60),
                                        "decay_seconds": max(300, d // 12)}),
        )),
        duration=d,
        seed=seed,
        controller="adaptive",
        budget_usd_per_hour=3.0,
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.THROTTLE_STORM, start=3 * d // 8,
                      duration=d // 8, intensity=0.8),
        ), seed=seed, name="flash-crowd-throttle-storm"),
    )


def _seasonal_drift(d: int, seed: int) -> Scenario:
    return Scenario(
        name="seasonal-drift",
        description="Demand drifts upward all horizon long while a faster "
                    "cycle rides on top — the operating point the gain "
                    "memory was calibrated for slowly stops existing.",
        workload=PatternSpec("product", inner=(
            PatternSpec("ramp", {"start_rate": 700.0, "end_rate": 1900.0,
                                 "t0": 0, "t1": d}),
            PatternSpec("sinusoid", {"mean": 1.0, "amplitude": 0.35,
                                     "period": max(1, d // 6), "phase": 0}),
        )),
        duration=d,
        seed=seed,
        controller="quasi",
        budget_usd_per_hour=3.0,
    )


def _cascading_brownouts(d: int, seed: int) -> Scenario:
    return Scenario(
        name="cascading-brownouts",
        description="Faults walk down the flow: an ingestion brownout, a "
                    "stuck analytics rebalance, then a storage throttle "
                    "storm, each landing before the previous recovery "
                    "settles.",
        workload=PatternSpec("sinusoid", {"mean": 1600.0, "amplitude": 900.0,
                                          "period": d, "phase": d // 4}),
        duration=d,
        seed=seed,
        controller="adaptive",
        budget_usd_per_hour=3.5,
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.SHARD_BROWNOUT, start=d // 4,
                      duration=d // 8, intensity=0.6),
            FaultSpec(FaultKind.REBALANCE_FAIL, start=3 * d // 8,
                      duration=d // 16),
            FaultSpec(FaultKind.THROTTLE_STORM, start=d // 2,
                      duration=d // 8, intensity=0.7),
            FaultSpec(FaultKind.SHARD_BROWNOUT, start=5 * d // 8,
                      duration=d // 12, intensity=0.4),
        ), seed=seed, name="cascading-brownouts"),
    )


def _key_skew_reshard(d: int, seed: int) -> Scenario:
    return Scenario(
        name="key-skew-reshard",
        description="Adversarial hot keys (zipf 1.6) under a bursty ramp "
                    "while resharding runs 3x slow — capacity arrives, the "
                    "split that spreads it does not.",
        workload=PatternSpec("bursty", {"bursts_per_hour": 2.0, "multiplier": 2.5,
                                        "duration_seconds": 300}, inner=(
            PatternSpec("ramp", {"start_rate": 700.0, "end_rate": 2000.0,
                                 "t0": d // 8, "t1": 7 * d // 8}),
        )),
        duration=d,
        seed=seed,
        controller="adaptive",
        key_skew=1.6,
        budget_usd_per_hour=3.5,
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.RESHARD_STALL, start=d // 3,
                      duration=d // 6, intensity=3.0),
            FaultSpec(FaultKind.RESHARD_STALL, start=2 * d // 3,
                      duration=d // 8, intensity=2.0),
        ), seed=seed, name="key-skew-reshard"),
    )


def _diurnal_sensor_dropout(d: int, seed: int) -> Scenario:
    return Scenario(
        name="diurnal-sensor-dropout",
        description="The evening ramp with the instruments failing: sensors "
                    "go blind during the climb, then report two-minute-old "
                    "data near the peak.",
        workload=PatternSpec("diurnal", {"mean": 1500.0, "amplitude": 1100.0,
                                         "peak_hour": 20.0}),
        duration=d,
        seed=seed,
        controller="adaptive",
        budget_usd_per_hour=3.5,
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.METRIC_DROPOUT, start=d // 3, duration=d // 24),
            FaultSpec(FaultKind.METRIC_DELAY, start=5 * d // 8,
                      duration=d // 12, intensity=120.0),
        ), seed=seed, name="diurnal-sensor-dropout"),
    )


def _noisy_neighbor_squeeze(d: int, seed: int) -> Scenario:
    return Scenario(
        name="noisy-neighbor-squeeze",
        description="Contention as weather: log-normal demand noise while "
                    "neighbors brown out shards, throttle the table, and "
                    "get capacity updates rejected.",
        workload=PatternSpec("noisy", {"sigma": 0.25, "interval": 120}, inner=(
            PatternSpec("sinusoid", {"mean": 1800.0, "amplitude": 1000.0,
                                     "period": d, "phase": d // 4}),
        )),
        duration=d,
        seed=seed,
        controller="rule",
        slo=SLOTargets(utilization_band=85.0, max_violation_pct=40.0),
        budget_usd_per_hour=4.0,
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.SHARD_BROWNOUT, start=d // 4,
                      duration=d // 6, intensity=0.35),
            FaultSpec(FaultKind.THROTTLE_STORM, start=9 * d // 20,
                      duration=d // 6, intensity=0.45),
            FaultSpec(FaultKind.UPDATE_REJECT, start=7 * d // 10,
                      duration=d // 12),
        ), seed=seed, name="noisy-neighbor-squeeze"),
    )


def _step_surge_worker_crash(d: int, seed: int) -> Scenario:
    return Scenario(
        name="step-surge-worker-crash",
        description="A step surge holds for half the horizon and a worker "
                    "crashes at its midpoint — the fixed-gain baseline's "
                    "worst day.",
        workload=PatternSpec("step", {"base": 800.0, "level": 2200.0,
                                      "at": d // 3, "until": 3 * d // 4}),
        duration=d,
        seed=seed,
        controller="fixed",
        slo=SLOTargets(utilization_band=85.0, max_violation_pct=35.0),
        budget_usd_per_hour=3.5,
        chaos=ChaosSchedule(faults=(
            FaultSpec(FaultKind.WORKER_CRASH, start=d // 2, intensity=1.0),
        ), seed=seed, name="step-surge-worker-crash"),
    )


def _trace_replay_daily(d: int, seed: int) -> Scenario:
    return Scenario(
        name="trace-replay-daily",
        description="An imported external trace (CSV, irregular sampling "
                    "with gaps) replayed bit-exactly through the grid API.",
        workload=PatternSpec("trace", {"csv": "sample_daily.csv", "scale": 1.0}),
        duration=d,
        seed=seed,
        controller="adaptive",
    )


def _weekend_retail(d: int, seed: int) -> Scenario:
    return Scenario(
        name="weekend-retail",
        description="A retail diurnal cycle with busy weekends: the weekly "
                    "shape squeezes the controllers through seven different "
                    "days.",
        workload=PatternSpec("weekly", {"day_factors": [0.9, 0.8, 0.8, 0.85,
                                                        1.0, 1.5, 1.6]}, inner=(
            PatternSpec("diurnal", {"mean": 1200.0, "amplitude": 800.0,
                                    "peak_hour": 19.0}),
        )),
        duration=d,
        seed=seed,
        controller="adaptive",
        budget_usd_per_hour=3.0,
    )


_BUILDERS = (
    _flash_crowd_throttle_storm,
    _seasonal_drift,
    _cascading_brownouts,
    _key_skew_reshard,
    _diurnal_sensor_dropout,
    _noisy_neighbor_squeeze,
    _step_surge_worker_crash,
    _trace_replay_daily,
    _weekend_retail,
)

#: Every catalog scenario name, in catalog order.
CATALOG_NAMES = tuple(
    builder(VARIANT_DURATIONS["smoke"], 7).name for builder in _BUILDERS
)

#: Default seed for catalog runs (matches the scorecard smoke seed).
CATALOG_SEED = 7


def catalog(variant: str = "smoke", seed: int = CATALOG_SEED) -> dict[str, Scenario]:
    """Every catalog scenario at the given variant's horizon, by name."""
    if variant not in VARIANT_DURATIONS:
        raise ConfigurationError(
            f"unknown catalog variant {variant!r}; one of: "
            f"{', '.join(sorted(VARIANT_DURATIONS))}"
        )
    scenarios = {}
    for builder in _BUILDERS:
        duration = VARIANT_DURATIONS[variant]
        probe = builder(duration, seed)
        if variant == "full" and probe.name in _LONG_FULL:
            probe = builder(_LONG_FULL[probe.name], seed)
        scenarios[probe.name] = probe
    return scenarios


def catalog_scenario(name: str, variant: str = "smoke",
                     seed: int = CATALOG_SEED) -> Scenario:
    """One catalog scenario by name."""
    scenarios = catalog(variant, seed=seed)
    if name not in scenarios:
        raise ConfigurationError(
            f"unknown catalog scenario {name!r}; one of: {', '.join(CATALOG_NAMES)}"
        )
    return scenarios[name]
