"""Workload generation: rate patterns, click streams and traces.

Replaces the demo's "random multi-threaded click stream generator
deployed on several EC2 instances" with a seeded, deterministic
click-stream source whose arrival rate is shaped by composable rate
patterns (diurnal cycles, bursts, flash crowds, steps, replays).
"""

from repro.workload.clickstream import (
    ClickBatch,
    ClickStreamConfig,
    ClickStreamGenerator,
    FastClickStreamGenerator,
)
from repro.workload.generators import (
    BurstyRate,
    CompositeRate,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    NoisyRate,
    RampRate,
    RateGrid,
    RatePattern,
    SinusoidalRate,
    StepRate,
    TracePattern,
    WeeklyRate,
)
from repro.workload.traces import Trace

__all__ = [
    "RatePattern",
    "ConstantRate",
    "StepRate",
    "RampRate",
    "SinusoidalRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "WeeklyRate",
    "BurstyRate",
    "NoisyRate",
    "CompositeRate",
    "TracePattern",
    "RateGrid",
    "ClickStreamGenerator",
    "FastClickStreamGenerator",
    "ClickStreamConfig",
    "ClickBatch",
    "Trace",
]
