"""Composable arrival-rate patterns.

A :class:`RatePattern` maps simulated time (seconds) to an expected
event rate (events/second). Patterns compose by summation or product,
so the Fig. 2 style workload — a diurnal base with bursts and noise —
is built as ``NoisyRate(BurstyRate(DiurnalRate(...)))``.

All stochastic patterns take an explicit :class:`numpy.random.Generator`
and pre-draw their randomness over a horizon, so that ``rate(t)`` is a
pure function: evaluating the same pattern twice, or out of order,
yields identical workloads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.workload.traces import Trace


class RatePattern(ABC):
    """Expected event rate as a pure function of simulated time."""

    @abstractmethod
    def rate(self, t: int) -> float:
        """Expected events/second at simulated second ``t`` (>= 0)."""

    def __add__(self, other: "RatePattern") -> "CompositeRate":
        return CompositeRate([self, other], mode="sum")

    def __mul__(self, other: "RatePattern") -> "CompositeRate":
        return CompositeRate([self, other], mode="product")

    def sample(self, start: int, end: int, step: int = 60) -> Trace:
        """Evaluate the pattern on a grid, as a :class:`Trace`.

        Grid semantics are shared with :meth:`values`: the points are
        ``range(start, end, step)`` (``end`` excluded) and each value is
        exactly what ``rate(t)`` returns at that point — useful for
        plotting and for tests that compare against the per-tick path.
        """
        if step <= 0:
            raise ConfigurationError("step must be positive")
        trace = Trace(type(self).__name__)
        for t in range(start, end, step):
            trace.append(t, self.rate(t))
        return trace

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        """Grid evaluation: ``rate(t)`` for ``t in range(start, end, step)``.

        The contract is *exact* elementwise equality with per-tick
        ``rate(t)`` calls — not statistical equivalence. The batched
        tick loops (:class:`RateGrid`, the manager's pipeline, the
        click-stream generator) read arrival rates through this API one
        chunk at a time instead of one Python call per tick, and rely on
        this equality to keep runs bit-identical to the unbatched loop.
        Subclasses overriding this must preserve the equality to the
        last ULP (beware vectorized transcendentals: ``np.sin`` over an
        array may differ from ``math.sin`` per element).
        """
        if step <= 0:
            raise ConfigurationError("step must be positive")
        return np.array([self.rate(t) for t in range(start, end, step)], dtype=float)

    def _grid_times(self, start: int, end: int, step: int) -> np.ndarray:
        """The shared grid raster for vectorized :meth:`values` overrides."""
        if step <= 0:
            raise ConfigurationError("step must be positive")
        return np.arange(start, end, step, dtype=np.int64)


class ConstantRate(RatePattern):
    """A flat rate."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError("rate must be non-negative")
        self.value = float(value)

    def rate(self, t: int) -> float:
        return self.value

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        return np.full(len(self._grid_times(start, end, step)), self.value)


class StepRate(RatePattern):
    """Jumps from ``base`` to ``level`` at ``at`` (optionally back at ``until``)."""

    def __init__(self, base: float, level: float, at: int, until: int | None = None) -> None:
        if base < 0 or level < 0:
            raise ConfigurationError("rates must be non-negative")
        if until is not None and until <= at:
            raise ConfigurationError("until must be after at")
        self.base = float(base)
        self.level = float(level)
        self.at = int(at)
        self.until = until

    def rate(self, t: int) -> float:
        if t < self.at:
            return self.base
        if self.until is not None and t >= self.until:
            return self.base
        return self.level

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        t = self._grid_times(start, end, step)
        active = t >= self.at
        if self.until is not None:
            active &= t < self.until
        return np.where(active, self.level, self.base)


class RampRate(RatePattern):
    """Linear ramp from ``start_rate`` at ``t0`` to ``end_rate`` at ``t1``."""

    def __init__(self, start_rate: float, end_rate: float, t0: int, t1: int) -> None:
        if t1 <= t0:
            raise ConfigurationError("t1 must be after t0")
        if start_rate < 0 or end_rate < 0:
            raise ConfigurationError("rates must be non-negative")
        self.start_rate = float(start_rate)
        self.end_rate = float(end_rate)
        self.t0 = int(t0)
        self.t1 = int(t1)

    def rate(self, t: int) -> float:
        if t <= self.t0:
            return self.start_rate
        if t >= self.t1:
            return self.end_rate
        progress = (t - self.t0) / (self.t1 - self.t0)
        return self.start_rate + progress * (self.end_rate - self.start_rate)

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        # Elementwise +, -, *, / are exact IEEE ops, identical between
        # the scalar and array paths.
        t = self._grid_times(start, end, step)
        progress = (t - self.t0) / (self.t1 - self.t0)
        ramp = self.start_rate + progress * (self.end_rate - self.start_rate)
        return np.where(t <= self.t0, self.start_rate, np.where(t >= self.t1, self.end_rate, ramp))


class SinusoidalRate(RatePattern):
    """``mean + amplitude * sin(2*pi*(t - phase)/period)``, floored at 0."""

    def __init__(self, mean: float, amplitude: float, period: int, phase: int = 0) -> None:
        if period <= 0:
            raise ConfigurationError("period must be positive")
        if mean < 0 or amplitude < 0:
            raise ConfigurationError("mean and amplitude must be non-negative")
        self.mean = float(mean)
        self.amplitude = float(amplitude)
        self.period = int(period)
        self.phase = int(phase)

    def rate(self, t: int) -> float:
        value = self.mean + self.amplitude * math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        return max(0.0, value)

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        # rate()'s IEEE operations in rate()'s order, over the column;
        # only the sine runs per element, through libm's math.sin (np.sin's
        # SIMD kernel need not match it element by element). The where()
        # floor is max(0.0, v) bit for bit: it turns -0.0 into 0.0 too.
        angles = (2.0 * math.pi) * (self._grid_times(start, end, step) - self.phase) / self.period
        sines = np.fromiter(map(math.sin, angles.tolist()), dtype=float, count=len(angles))
        value = self.mean + self.amplitude * sines
        return np.where(value > 0.0, value, 0.0)


class DiurnalRate(SinusoidalRate):
    """A 24-hour sinusoid peaking at ``peak_hour`` local time."""

    def __init__(self, mean: float, amplitude: float, peak_hour: float = 20.0) -> None:
        day = 24 * 3600
        # sin peaks a quarter-period after the phase origin.
        phase = int(peak_hour * 3600 - day / 4)
        super().__init__(mean, amplitude, day, phase)


class WeeklyRate(RatePattern):
    """A weekly shape: a diurnal cycle scaled per day of the week.

    ``day_factors`` maps day index (0 = the day the simulation starts)
    modulo 7 to a multiplier — e.g. quiet weekends for a B2B dashboard
    or busy weekends for a retail one.
    """

    def __init__(self, daily: RatePattern, day_factors: Sequence[float]) -> None:
        if len(day_factors) != 7:
            raise ConfigurationError(f"need exactly 7 day factors, got {len(day_factors)}")
        if any(f < 0 for f in day_factors):
            raise ConfigurationError("day factors must be non-negative")
        self.daily = daily
        self.day_factors = tuple(float(f) for f in day_factors)

    def rate(self, t: int) -> float:
        day = (t // 86400) % 7
        return self.daily.rate(t) * self.day_factors[day]

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        t = self._grid_times(start, end, step)
        factors = np.asarray(self.day_factors)[(t // 86400) % 7]
        return self.daily.values(start, end, step) * factors


class FlashCrowdRate(RatePattern):
    """A sudden spike: linear rise then exponential decay.

    Models the "unplanned or unforeseen changes in demand" the paper
    says rule-based autoscalers fail to adapt to — e.g. a page going
    viral. Additive: compose with a base pattern via ``+``.
    """

    def __init__(self, peak: float, at: int, rise_seconds: int = 60, decay_seconds: int = 600) -> None:
        if peak < 0:
            raise ConfigurationError("peak must be non-negative")
        if rise_seconds <= 0 or decay_seconds <= 0:
            raise ConfigurationError("rise/decay durations must be positive")
        self.peak = float(peak)
        self.at = int(at)
        self.rise_seconds = int(rise_seconds)
        self.decay_seconds = int(decay_seconds)

    def rate(self, t: int) -> float:
        if t < self.at:
            return 0.0
        if t < self.at + self.rise_seconds:
            return self.peak * (t - self.at) / self.rise_seconds
        elapsed = t - self.at - self.rise_seconds
        return self.peak * math.exp(-elapsed / self.decay_seconds)


class BurstyRate(RatePattern):
    """Random multiplicative bursts over an inner pattern.

    Burst start times are drawn once, at construction, as a Poisson
    process over ``[0, horizon)`` — so the pattern stays a pure function
    of time.
    """

    def __init__(
        self,
        inner: RatePattern,
        rng: np.random.Generator,
        horizon: int,
        bursts_per_hour: float = 0.5,
        multiplier: float = 2.5,
        duration_seconds: int = 300,
    ) -> None:
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if bursts_per_hour < 0 or multiplier < 1.0 or duration_seconds <= 0:
            raise ConfigurationError(
                "need bursts_per_hour >= 0, multiplier >= 1, duration_seconds > 0"
            )
        self.inner = inner
        self.multiplier = float(multiplier)
        self.duration_seconds = int(duration_seconds)
        expected = bursts_per_hour * horizon / 3600.0
        count = int(rng.poisson(expected)) if expected > 0 else 0
        self.burst_starts = sorted(int(s) for s in rng.uniform(0, horizon, size=count))

    def rate(self, t: int) -> float:
        base = self.inner.rate(t)
        for start in self.burst_starts:
            if start <= t < start + self.duration_seconds:
                return base * self.multiplier
        return base

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        base = self.inner.values(start, end, step)
        # Only the bursts overlapping [start, end) matter: bisect finds
        # them in the sorted starts, and each marks the grid indices of
        # its [b, b + duration) by ceiling division, so a call costs
        # O(log bursts + overlaps).
        starts = self.burst_starts
        duration = self.duration_seconds
        lo = bisect_right(starts, start - duration)
        hi = bisect_left(starts, end)
        if lo == hi:
            return base
        in_burst = np.zeros(len(base), dtype=bool)
        for burst_start in starts[lo:hi]:
            first = max(0, -((start - burst_start) // step))
            in_burst[first : -((start - burst_start - duration) // step)] = True
        return np.where(in_burst, base * self.multiplier, base)


class NoisyRate(RatePattern):
    """Multiplicative log-normal noise, piecewise-constant per interval.

    Noise is pre-drawn on a fixed grid so the pattern is pure; the
    ``interval`` controls how fast the noise wiggles (Fig. 2's minute-
    scale jitter uses the default 60 s).
    """

    def __init__(
        self,
        inner: RatePattern,
        rng: np.random.Generator,
        horizon: int,
        sigma: float = 0.1,
        interval: int = 60,
    ) -> None:
        if horizon <= 0 or interval <= 0:
            raise ConfigurationError("horizon and interval must be positive")
        if sigma < 0:
            raise ConfigurationError("sigma must be non-negative")
        self.inner = inner
        self.interval = int(interval)
        n = horizon // interval + 2
        # Log-normal with mean 1 so noise does not bias the average rate.
        self._factors = np.exp(rng.normal(-0.5 * sigma * sigma, sigma, size=n))

    def rate(self, t: int) -> float:
        index = min(max(t, 0) // self.interval, len(self._factors) - 1)
        return self.inner.rate(t) * float(self._factors[index])

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        t = self._grid_times(start, end, step)
        index = np.minimum(np.maximum(t, 0) // self.interval, len(self._factors) - 1)
        return self.inner.values(start, end, step) * self._factors[index]


class CompositeRate(RatePattern):
    """Sum or product of several patterns."""

    def __init__(self, patterns: Sequence[RatePattern], mode: str = "sum") -> None:
        if not patterns:
            raise ConfigurationError("need at least one pattern")
        if mode not in ("sum", "product"):
            raise ConfigurationError(f"mode must be 'sum' or 'product', got {mode!r}")
        self.patterns = list(patterns)
        self.mode = mode

    def rate(self, t: int) -> float:
        # A left fold, as values() adds: sum() over floats is
        # compensated from Python 3.12 on, so it may differ in the last ULP.
        if self.mode == "sum":
            total = 0.0
            for pattern in self.patterns:
                total += pattern.rate(t)
            return total
        value = 1.0
        for pattern in self.patterns:
            value *= pattern.rate(t)
        return value

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        # Accumulate in the same left-to-right order as rate(): float
        # addition is not associative, so order is part of the contract.
        total = None
        for pattern in self.patterns:
            part = pattern.values(start, end, step)
            if total is None:
                total = 0.0 + part if self.mode == "sum" else 1.0 * part
            else:
                total = total + part if self.mode == "sum" else total * part
        return total


class RateGrid:
    """Chunked grid evaluation of a pattern, for hot tick loops.

    Deep pattern stacks (``NoisyRate(BurstyRate(DiurnalRate(...)))``)
    cost several Python calls — plus a burst-interval scan — *per tick*
    when read via ``rate(t)``. A ``RateGrid`` instead materialises the
    next ``chunk`` grid points through :meth:`RatePattern.values` and
    serves lookups from the array, so the per-tick cost in the manager's
    run loop is one array index.

    Because ``values()`` is contractually elementwise-equal to per-tick
    ``rate(t)`` calls, reading through a grid is bit-identical to the
    unbatched loop (asserted by ``tests/test_generators.py``). Lookups
    off the grid's step raster fall back to ``rate(t)`` directly, so any
    caller may probe arbitrary times without drift.
    """

    def __init__(self, pattern: RatePattern, step: int, chunk: int = 512) -> None:
        if step <= 0:
            raise ConfigurationError("step must be positive")
        if chunk <= 0:
            raise ConfigurationError("chunk must be positive")
        self.pattern = pattern
        self.step = int(step)
        self.chunk = int(chunk)
        self._start = 0
        self._rates: np.ndarray = np.empty(0)

    def rate_at(self, t: int) -> float:
        """``pattern.rate(t)``, served from the precomputed chunk."""
        offset = t - self._start
        if offset % self.step:
            return self.pattern.rate(t)
        index = offset // self.step
        if not 0 <= index < len(self._rates):
            self._start = t
            self._rates = self.pattern.values(t, t + self.chunk * self.step, self.step)
            index = 0
        return float(self._rates[index])

    def rates_span(self, start: int, count: int) -> list[float]:
        """``[rate_at(start + i * step) for i in range(count)]`` in one call.

        Patterns are pure (even :class:`NoisyRate` pre-draws its
        factors) and ``values()`` is elementwise-equal to ``rate(t)``,
        so one grid evaluation over the span returns bit-identical
        values regardless of how chunk refills would have fallen. The
        cached chunk is left untouched for interleaved ``rate_at`` use.
        """
        return self.rates_array(start, count).tolist()

    def rates_array(self, start: int, count: int) -> np.ndarray:
        """:meth:`rates_span` as an ndarray, for vectorized consumers.

        The fast (``exact=False``) workload path feeds these rates
        straight into batched Poisson draws, so it wants the array
        without the ``tolist()`` round-trip the per-tick span loop
        prefers for scalar indexing.
        """
        if count <= 0:
            return np.empty(0)
        step = self.step
        return self.pattern.values(start, start + count * step, step)


class TracePattern(RatePattern):
    """Replays any :class:`Trace` through the grid API, bit-exactly.

    The scenario catalog's trace-replay adapter: external traces (CSV
    importable via :meth:`from_csv`) become first-class workloads with
    step-hold semantics — the rate at ``t`` is the value of the most
    recent trace point at or before ``t``, times before the first point
    hold the first value, and times past the end (and inside recording
    gaps) hold the last value seen. ``scale`` rescales a recorded trace
    onto a different fleet size.

    The :meth:`values` override serves grid reads with one
    ``searchsorted`` per chunk while preserving the elementwise-equality
    contract with per-tick ``rate(t)`` calls, so span-batched runs
    replay a trace bit-identically to the per-tick reference loop
    (pinned by ``tests/test_trace_replay.py``).
    """

    def __init__(self, trace: Trace, scale: float = 1.0) -> None:
        if len(trace) == 0:
            raise ConfigurationError("cannot replay an empty trace")
        if not math.isfinite(scale) or scale <= 0:
            raise ConfigurationError(f"scale must be positive and finite, got {scale}")
        for t, v in trace:
            if not math.isfinite(v):
                raise ConfigurationError(
                    f"trace {trace.name!r}: non-finite value {v!r} at t={t} "
                    "cannot be replayed as a rate"
                )
        self.trace = trace
        self.scale = float(scale)
        self._times = np.asarray(trace.times, dtype=np.int64)
        self._values = np.asarray(trace.values, dtype=float)

    def rate(self, t: int) -> float:
        index = int(np.searchsorted(self._times, t, side="right")) - 1
        if index < 0:
            index = 0
        return max(0.0, float(self._values[index]) * self.scale)

    def values(self, start: int, end: int, step: int = 1) -> np.ndarray:
        # Hold-last lookup for the whole grid in one searchsorted; the
        # per-element multiply and floor are the same IEEE operations
        # as the scalar path, so equality holds to the last ULP. The
        # floor is where(), not np.maximum: max(0.0, -0.0) is 0.0, and
        # np.maximum(0.0, -0.0) keeps the -0.0.
        t = self._grid_times(start, end, step)
        index = np.searchsorted(self._times, t, side="right") - 1
        np.clip(index, 0, None, out=index)
        scaled = self._values[index] * self.scale
        return np.where(scaled > 0.0, scaled, 0.0)

    @classmethod
    def from_csv(cls, path, name: str = "", scale: float = 1.0) -> "TracePattern":
        """Load a ``time,value`` CSV (see :meth:`Trace.from_csv`) and
        replay it."""
        return cls(Trace.from_csv(path, name=name), scale=scale)
