"""TracePattern replay: grid-exact, span-exact, hold-last pinned.

The scenario catalog replays external traces through the same
``RatePattern``/``RateGrid`` grid API every other workload uses, so its
contract is the strong one: ``values()`` elementwise bit-identical to
per-tick ``rate(t)`` calls, and a managed run reading the trace through
span-batched execution bit-identical to the per-tick reference loop —
including traces whose length does not divide the span horizon and
traces with recording gaps.
"""

import numpy as np
import pytest

from repro.core.builder import FlowBuilder
from repro.core.errors import ConfigurationError
from repro.core.flow import LayerKind
from repro.workload.generators import RateGrid, TracePattern
from repro.workload.traces import Trace


def gappy_trace() -> Trace:
    """Irregular sampling: 60 s cadence, dropped points, a long gap,
    and a length (13 points) that divides no control period."""
    points = [
        (0, 120.0), (60, 180.0), (120, 90.0), (300, 400.0), (360, 410.0),
        (420, 380.0), (900, 55.0), (960, 60.0), (1500, 800.0), (1560, 790.0),
        (1620, 810.0), (2400, 230.0), (2460, 240.0),
    ]
    return Trace("gappy", points)


class TestHoldSemantics:
    def test_hold_last_inside_gaps_and_past_end(self):
        pattern = TracePattern(gappy_trace())
        # Inside the 420 -> 900 gap the 420 value holds.
        assert pattern.rate(421) == 380.0
        assert pattern.rate(899) == 380.0
        assert pattern.rate(900) == 55.0
        # Past the last point the final value holds forever.
        assert pattern.rate(2460) == 240.0
        assert pattern.rate(10**7) == 240.0

    def test_hold_first_before_start(self):
        trace = Trace("late", [(500, 70.0), (600, 80.0)])
        pattern = TracePattern(trace)
        assert pattern.rate(0) == 70.0
        assert pattern.rate(499) == 70.0
        assert pattern.rate(500) == 70.0

    def test_scale_applies_everywhere(self):
        pattern = TracePattern(gappy_trace(), scale=2.5)
        assert pattern.rate(0) == 120.0 * 2.5
        assert pattern.rate(10**6) == 240.0 * 2.5

    def test_rejects_empty_trace_and_bad_scale(self):
        with pytest.raises(ConfigurationError, match="empty trace"):
            TracePattern(Trace("empty"))
        with pytest.raises(ConfigurationError, match="scale"):
            TracePattern(gappy_trace(), scale=0.0)
        with pytest.raises(ConfigurationError, match="scale"):
            TracePattern(gappy_trace(), scale=float("nan"))

    def test_rejects_non_finite_values(self):
        trace = Trace("bad", [(0, 1.0), (60, float("inf"))])
        with pytest.raises(ConfigurationError, match="non-finite"):
            TracePattern(trace)


class TestGridEquality:
    """values() must equal per-tick rate(t) to the last ULP."""

    @pytest.mark.parametrize("step", [1, 7, 60, 97])
    @pytest.mark.parametrize("scale", [1.0, 3.7])
    def test_values_bitwise_equal_to_rate(self, step, scale):
        pattern = TracePattern(gappy_trace(), scale=scale)
        start, end = 0, 3000  # runs past the trace end
        grid = pattern.values(start, end, step)
        scalar = [pattern.rate(t) for t in range(start, end, step)]
        assert [repr(v) for v in grid.tolist()] == [repr(v) for v in scalar]

    @pytest.mark.parametrize("step", [1, 7])
    def test_negative_zero_point_floors_to_positive_zero(self, step):
        """A CSV ``-0`` loads as a -0.0 point; rate()'s max(0.0, v)
        returns 0.0 there, and values() must too, not keep the sign."""
        trace = Trace("signed-zero", [(0, 5.0), (10, -0.0), (30, 2.5), (40, -0.0)])
        pattern = TracePattern(trace, scale=3.7)
        grid = pattern.values(0, 60, step)
        scalar = [pattern.rate(t) for t in range(0, 60, step)]
        assert [repr(v) for v in grid.tolist()] == [repr(v) for v in scalar]

    def test_rate_grid_span_reads_match_per_tick(self):
        pattern = TracePattern(gappy_trace())
        grid = RateGrid(pattern, step=1, chunk=256)
        # Span horizon (777) deliberately does not divide the trace
        # length or any sampling cadence.
        span = grid.rates_span(0, 777)
        per_tick = [pattern.rate(t) for t in range(777)]
        assert [repr(v) for v in span] == [repr(v) for v in per_tick]

    def test_values_before_first_point_clamp(self):
        trace = Trace("late", [(500, 70.0), (600, 80.0)])
        pattern = TracePattern(trace)
        grid = pattern.values(0, 700, 100)
        assert grid.tolist() == [70.0, 70.0, 70.0, 70.0, 70.0, 70.0, 80.0]


def _fingerprint(result):
    """Full-precision repr of every capacity/utilization trace."""
    out = []
    for kind in LayerKind:
        for trace in (result.capacity_trace(kind), result.utilization_trace(kind)):
            out.append((kind.name, trace.times, [repr(v) for v in trace.values]))
    out.append(repr(result.total_cost))
    return out


class TestSpanVsTickReplay:
    """A managed run replaying a trace must be bit-identical with
    span-batched execution and with the per-tick reference loop."""

    DURATION = 1800

    def _run(self, spans: bool, scale: float = 12.0):
        builder = (
            FlowBuilder("replay-equiv", seed=11)
            .ingestion(shards=2)
            .analytics(vms=2)
            .storage(write_units=300)
            .workload(TracePattern(gappy_trace(), scale=scale))
            .control_all(style="adaptive", reference=60.0, period=60)
            .spans(spans)
        )
        return builder.build().run(self.DURATION)

    def test_span_equals_reference(self):
        assert _fingerprint(self._run(True)) == _fingerprint(self._run(False))

    def test_trace_shorter_than_horizon_holds_last(self):
        # The trace ends at t=2460 < duration is false here (1800), so
        # use a shorter trace: ends mid-run, hold-last drives the rest.
        short = Trace("short", [(0, 900.0), (300, 1800.0), (700, 600.0)])
        runs = []
        for spans in (True, False):
            builder = (
                FlowBuilder("replay-short", seed=3)
                .ingestion(shards=2)
                .analytics(vms=2)
                .storage(write_units=300)
                .workload(TracePattern(short))
                .control_all(style="adaptive", reference=60.0, period=60)
                .spans(spans)
            )
            runs.append(builder.build().run(self.DURATION))
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])


class TestCsvImport:
    def test_from_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        gappy_trace().to_csv(path)
        pattern = TracePattern.from_csv(path, scale=2.0)
        reference = TracePattern(gappy_trace(), scale=2.0)
        assert np.array_equal(pattern.values(0, 3000, 7), reference.values(0, 3000, 7))

    def test_shipped_sample_trace_loads(self):
        from repro.scenarios.spec import PatternSpec

        pattern = PatternSpec("trace", {"csv": "sample_daily.csv"}).build(7, 86400)
        assert isinstance(pattern, TracePattern)
        assert pattern.rate(0) > 0.0
