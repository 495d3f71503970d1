"""Unit tests for rate patterns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.simulation import derive_rng
from repro.workload import generators
from repro.workload import (
    BurstyRate,
    CompositeRate,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    NoisyRate,
    RampRate,
    RateGrid,
    SinusoidalRate,
    StepRate,
    Trace,
    TracePattern,
    WeeklyRate,
)

from tests.test_scenarios_property import pattern_trees


def _bits(values):
    """Float64 bit patterns: unlike ``==``, tells -0.0 from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _fig2_style_stack(horizon=7200, seed=11):
    """A deep composite stack like the benchmarks use."""
    base = SinusoidalRate(mean=800.0, amplitude=300.0, period=horizon)
    crowd = base + FlashCrowdRate(peak=400, at=horizon // 3)
    bursty = BurstyRate(crowd, derive_rng(seed, "bursts"), horizon=horizon)
    return NoisyRate(bursty, derive_rng(seed, "noise"), horizon=horizon, sigma=0.1)


class TestConstantAndStep:
    def test_constant(self):
        assert ConstantRate(5.0).rate(0) == 5.0
        assert ConstantRate(5.0).rate(10_000) == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantRate(-1)

    def test_step_up_and_back(self):
        step = StepRate(base=10, level=100, at=60, until=120)
        assert step.rate(59) == 10
        assert step.rate(60) == 100
        assert step.rate(119) == 100
        assert step.rate(120) == 10

    def test_step_without_until_is_permanent(self):
        step = StepRate(base=10, level=100, at=60)
        assert step.rate(10_000) == 100

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            StepRate(base=10, level=100, at=60, until=60)


class TestRamp:
    def test_linear_interpolation(self):
        ramp = RampRate(0, 100, t0=0, t1=100)
        assert ramp.rate(0) == 0
        assert ramp.rate(50) == 50
        assert ramp.rate(100) == 100
        assert ramp.rate(200) == 100

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RampRate(0, 10, t0=10, t1=10)


class TestSinusoidal:
    def test_mean_and_extremes(self):
        wave = SinusoidalRate(mean=100, amplitude=50, period=3600)
        assert wave.rate(0) == pytest.approx(100)
        assert wave.rate(900) == pytest.approx(150)
        assert wave.rate(2700) == pytest.approx(50)

    def test_floored_at_zero(self):
        wave = SinusoidalRate(mean=10, amplitude=100, period=3600)
        assert wave.rate(2700) == 0.0

    def test_diurnal_peaks_at_peak_hour(self):
        diurnal = DiurnalRate(mean=100, amplitude=50, peak_hour=20)
        peak = diurnal.rate(20 * 3600)
        trough = diurnal.rate(8 * 3600)
        assert peak == pytest.approx(150)
        assert trough == pytest.approx(50)


class TestFlashCrowd:
    def test_rise_and_decay(self):
        crowd = FlashCrowdRate(peak=1000, at=100, rise_seconds=10, decay_seconds=100)
        assert crowd.rate(99) == 0.0
        assert crowd.rate(105) == pytest.approx(500)
        assert crowd.rate(110) == pytest.approx(1000)
        # One decay constant later: peak / e.
        assert crowd.rate(210) == pytest.approx(1000 / 2.71828, rel=1e-3)

    def test_additive_composition(self):
        total = ConstantRate(100) + FlashCrowdRate(peak=900, at=0, rise_seconds=1)
        assert total.rate(1) == pytest.approx(1000)


class TestBursty:
    def test_deterministic_given_seed(self):
        rng1 = derive_rng(3, "bursts")
        rng2 = derive_rng(3, "bursts")
        a = BurstyRate(ConstantRate(10), rng1, horizon=36000, bursts_per_hour=2)
        b = BurstyRate(ConstantRate(10), rng2, horizon=36000, bursts_per_hour=2)
        assert a.burst_starts == b.burst_starts

    def test_burst_multiplies_rate(self):
        rng = derive_rng(5, "bursts")
        pattern = BurstyRate(
            ConstantRate(10), rng, horizon=36000, bursts_per_hour=3,
            multiplier=4.0, duration_seconds=60,
        )
        assert pattern.burst_starts, "expected at least one burst at this rate"
        start = pattern.burst_starts[0]
        assert pattern.rate(start) == 40.0
        assert pattern.rate(start + 60) in (10.0, 40.0)  # next burst may overlap

    def test_zero_bursts_per_hour(self):
        pattern = BurstyRate(ConstantRate(10), derive_rng(1, "b"), horizon=3600, bursts_per_hour=0)
        assert pattern.burst_starts == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyRate(ConstantRate(1), derive_rng(0, "x"), horizon=0)


class TestNoisy:
    def test_pure_function_of_time(self):
        pattern = NoisyRate(ConstantRate(100), derive_rng(1, "n"), horizon=3600, sigma=0.2)
        assert pattern.rate(500) == pattern.rate(500)

    def test_noise_is_multiplicative_and_unbiased(self):
        pattern = NoisyRate(ConstantRate(100), derive_rng(1, "n"), horizon=360000, sigma=0.1)
        samples = [pattern.rate(t) for t in range(0, 360000, 60)]
        assert all(s > 0 for s in samples)
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(100, rel=0.05)

    def test_zero_sigma_is_identity(self):
        pattern = NoisyRate(ConstantRate(42), derive_rng(1, "n"), horizon=3600, sigma=0.0)
        assert pattern.rate(100) == 42.0


class TestComposite:
    def test_sum_and_product(self):
        total = CompositeRate([ConstantRate(2), ConstantRate(3)], mode="sum")
        assert total.rate(0) == 5.0
        product = CompositeRate([ConstantRate(2), ConstantRate(3)], mode="product")
        assert product.rate(0) == 6.0

    def test_operators(self):
        assert (ConstantRate(2) * ConstantRate(3)).rate(0) == 6.0

    def test_sum_folds_left_like_values(self, monkeypatch):
        """rate() adds in pattern order, as values() does, so a
        compensated sum() (Python 3.12+, stood in for by fsum) cannot
        move it off the grid contract."""
        monkeypatch.setattr(generators, "sum", math.fsum, raising=False)
        total = CompositeRate([ConstantRate(1e16), ConstantRate(1.0), ConstantRate(1.0)])
        for t in (0, 7, 3600):
            assert _bits([total.rate(t)]) == _bits(total.values(t, t + 1))
            assert total.rate(t) == 1e16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeRate([], mode="sum")
        with pytest.raises(ConfigurationError):
            CompositeRate([ConstantRate(1)], mode="average")


class TestReplay:
    def test_replays_trace_step_hold(self):
        trace = Trace("w", [(0, 10.0), (60, 20.0)])
        replay = TracePattern(trace)
        assert replay.rate(30) == 10.0
        assert replay.rate(61) == 20.0

    def test_before_first_point_holds_first_value(self):
        trace = Trace("w", [(100, 10.0)])
        assert TracePattern(trace).rate(0) == 10.0

    def test_rejects_empty_trace(self):
        with pytest.raises(ConfigurationError):
            TracePattern(Trace("empty"))


class TestSample:
    def test_sample_grid(self):
        trace = ConstantRate(5).sample(0, 300, step=60)
        assert trace.times == [0, 60, 120, 180, 240]
        assert all(v == 5.0 for v in trace.values)


class TestGridEvaluation:
    """The values()/RateGrid contract the batched manager path rests on:
    grid evaluation equals per-tick rate(t) calls exactly."""

    def test_values_equals_per_tick_rate_calls(self):
        pattern = _fig2_style_stack()
        grid = pattern.values(0, 3600, step=1)
        loop = [pattern.rate(t) for t in range(0, 3600)]
        assert _bits(grid) == _bits(loop)  # bit-exact, not approx

    def test_values_matches_sample_grid(self):
        pattern = _fig2_style_stack()
        trace = pattern.sample(100, 1000, step=7)
        assert _bits(pattern.values(100, 1000, step=7)) == _bits(trace.values)

    def test_values_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            ConstantRate(1).values(0, 10, step=0)

    def test_rate_grid_is_bit_identical_across_chunks(self):
        pattern = _fig2_style_stack()
        grid = RateGrid(pattern, step=1, chunk=64)  # force many refills
        got = [grid.rate_at(t) for t in range(0, 1000)]
        assert _bits(got) == _bits([pattern.rate(t) for t in range(0, 1000)])

    def test_rate_grid_off_raster_falls_back(self):
        pattern = _fig2_style_stack()
        grid = RateGrid(pattern, step=10, chunk=8)
        times = [0, 13, 20]  # 13 is off the 10 s raster
        assert _bits([grid.rate_at(t) for t in times]) == _bits([pattern.rate(t) for t in times])

    def test_rate_grid_handles_backwards_jumps(self):
        pattern = _fig2_style_stack()
        grid = RateGrid(pattern, step=1, chunk=16)
        times = [500, 3]
        assert _bits([grid.rate_at(t) for t in times]) == _bits([pattern.rate(t) for t in times])

    def test_rate_grid_validation(self):
        with pytest.raises(ConfigurationError):
            RateGrid(ConstantRate(1), step=0)
        with pytest.raises(ConfigurationError):
            RateGrid(ConstantRate(1), step=1, chunk=0)

    def test_vectorized_overrides_match_loop(self):
        """Every pattern with a vectorized values() override stays
        elementwise bit-identical to the per-tick rate(t) loop."""
        patterns = [
            ConstantRate(5.0),
            StepRate(base=10, level=100, at=600, until=1200),
            StepRate(base=10, level=100, at=600),
            RampRate(5, 50, t0=300, t1=900),
            # Amplitude above the mean: the floor clips a third of the cycle.
            SinusoidalRate(mean=20, amplitude=50, period=600, phase=100),
            DiurnalRate(mean=60, amplitude=40, peak_hour=20.0),
            WeeklyRate(ConstantRate(7.0), day_factors=[1, 0.5, 2, 1, 1, 0.25, 3]),
            BurstyRate(
                SinusoidalRate(mean=100, amplitude=40, period=3600),
                derive_rng(3, "bursts"), horizon=7200, bursts_per_hour=4.0,
            ),
            NoisyRate(
                RampRate(10, 200, t0=0, t1=7200),
                derive_rng(3, "noise"), horizon=7200, sigma=0.3,
            ),
            CompositeRate([ConstantRate(3), RampRate(0, 10, 0, 1000)], mode="sum"),
            CompositeRate([ConstantRate(3), StepRate(base=1, level=2, at=500)], mode="product"),
        ]
        for pattern in patterns:
            got = pattern.values(0, 2000, step=7)
            want = [pattern.rate(t) for t in range(0, 2000, 7)]
            assert _bits(got) == _bits(want), type(pattern).__name__

    def test_weekly_values_across_day_boundaries(self):
        """The day-factor index must wrap mod 7 exactly like rate()."""
        weekly = WeeklyRate(
            SinusoidalRate(mean=50, amplitude=20, period=86400),
            day_factors=[1.0, 0.5, 2.0, 1.0, 1.5, 0.25, 3.0],
        )
        got = weekly.values(0, 9 * 86400, step=3571)  # off-raster step crosses every boundary
        want = [weekly.rate(t) for t in range(0, 9 * 86400, 3571)]
        assert _bits(got) == _bits(want)

    def test_bursty_grid_marks_exactly_the_burst_ticks(self):
        """Grids that start inside, end inside and straddle bursts, on
        steps that divide neither a burst start nor its duration."""
        pattern = BurstyRate(
            ConstantRate(10.0), derive_rng(5, "bursts"), horizon=7200,
            bursts_per_hour=6.0, multiplier=3.0, duration_seconds=301,
        )
        for burst in pattern.burst_starts:
            for offset in (-13, 0, 1, 299, 301):
                start = max(burst + offset, 0)
                for step in (1, 7, 60):
                    end = start + 40 * step
                    want = [pattern.rate(t) for t in range(start, end, step)]
                    assert _bits(pattern.values(start, end, step)) == _bits(want), (start, step)


#: Horizon the property test builds its pattern trees against.
_TREE_HORIZON = 7200


class TestGridContractProperty:
    """values() equals per-tick rate(t) bit for bit for every pattern
    kind the scenario DSL builds: all 12 kinds, nested wrappers and
    traces. Leaf rates include -0.0, which only a bit comparison tells
    from 0.0; grids start anywhere up to twice the horizon, on steps of
    1-97 s, and run up to 400 points, across burst ends."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        spec=pattern_trees(
            rates=st.floats(min_value=-0.0, max_value=1e6, allow_nan=False,
                            allow_infinity=False),
            extent=_TREE_HORIZON,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        start=st.integers(min_value=0, max_value=2 * _TREE_HORIZON),
        step=st.integers(min_value=1, max_value=97),
        count=st.integers(min_value=0, max_value=400),
    )
    def test_values_bitwise_equal_to_rate(self, spec, seed, start, step, count):
        pattern = spec.build(seed, _TREE_HORIZON)
        end = start + count * step
        want = [pattern.rate(t) for t in range(start, end, step)]
        assert _bits(pattern.values(start, end, step)) == _bits(want)


class TestProperties:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_rates_are_never_negative(self, t):
        patterns = [
            SinusoidalRate(mean=10, amplitude=100, period=3600),
            RampRate(5, 50, 0, 100),
            FlashCrowdRate(peak=10, at=100),
            DiurnalRate(mean=10, amplitude=30),
        ]
        for pattern in patterns:
            assert pattern.rate(t) >= 0.0
