"""Tests for the approximate (``exact=False``) fast workload path.

The approximation contract (DESIGN.md) in executable form:

* **distributional equivalence** — at a fixed seed grid, the fast
  generator's arrivals, payload bytes and distinct pages match the
  exact generator's in mean, variance and two-sample KS distance;
* **determinism per seed** — same seed, same pattern, same tick length
  give the same fast stream;
* **span/tick identity within the fast path** — block draws align to
  the absolute tick index, so fast span runs are bit-identical to fast
  per-tick runs (generator- and manager-level), however unevenly the
  spans fall;
* **exactness flagging end-to-end** — the flag rides from
  ``FlowBuilder.exact()`` through results to scorecards, fast cards
  refuse to compare against exact baselines, and fleet sweeps stay
  byte-identical across jobs counts;
* **a bounded occupancy table** — every entry of the fast path's
  expected-distinct table is the per-count sum bit for bit, whichever
  fill reaches it first, and the table never grows past its cap.
"""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from repro import FleetScenarioSpec, FlowBuilder, LayerKind, sweep_fleet_scenarios
from repro.analysis.scorecard import FleetScorecard, RunScorecard, drift
from repro.cloud.region import RegionLimits
from repro.cloud.storm import StormConfig
from repro.core.config import LayerControlConfig, default_adaptive_controller
from repro.core.errors import ConfigurationError
from repro.core.fleet import FleetFlowSpec, RegionFleetManager
from repro.simulation import SimClock, derive_rng
from repro.workload import (
    ClickStreamConfig,
    ClickStreamGenerator,
    ConstantRate,
    FastClickStreamGenerator,
    SinusoidalRate,
)
from repro.workload.clickstream import DISTINCT_TABLE_CAP

#: The fixed seed grid every distributional test runs on (>= 3 seeds,
#: per the acceptance criteria).
SEEDS = (3, 17, 401)
TICKS = 4000


def span_columns(generator, ticks=TICKS):
    """``(records, payload)`` as float arrays."""
    columns = generator.generate_span(1, ticks, 1)
    return [np.asarray(column, dtype=float) for column in columns]


def tick_arrays(generator, ticks=TICKS):
    """``(records, payload, distinct)`` from per-tick batches, as float
    arrays: ``generate_span`` does not return the distinct pages."""
    return [np.asarray(column, dtype=float) for column in tick_columns(generator, ticks)]


def tick_columns(generator, ticks):
    clock = SimClock(tick_seconds=1)
    columns = ([], [], [])
    for _ in range(ticks):
        clock.advance()
        batch = generator.generate(clock)
        columns[0].append(batch.records)
        columns[1].append(batch.payload_bytes)
        columns[2].append(batch.distinct_keys)
    return columns


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


#: KS acceptance threshold at alpha ~= 0.001 for two samples of TICKS
#: draws each. The seeds are fixed, so this never flakes — it documents
#: how close the distributions are required to be.
KS_THRESHOLD = 1.949 * math.sqrt(2.0 / TICKS)


def generator_pair(seed, rate=1500.0, config=None, pattern=None):
    pattern = pattern or ConstantRate(rate)
    exact = ClickStreamGenerator(
        pattern, rng=derive_rng(seed, "exact"), config=config
    )
    fast = FastClickStreamGenerator(
        pattern, rng=derive_rng(seed, "fast"), config=config
    )
    return exact, fast


class TestDistributionalEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_arrivals_match(self, seed):
        exact, fast = generator_pair(seed)
        e, f = span_columns(exact)[0], span_columns(fast)[0]
        assert f.mean() == pytest.approx(e.mean(), rel=0.02)
        # Poisson: variance tracks the mean on both paths.
        assert f.var() / f.mean() == pytest.approx(1.0, abs=0.1)
        assert e.var() / e.mean() == pytest.approx(1.0, abs=0.1)
        assert ks_statistic(e, f) < KS_THRESHOLD

    @pytest.mark.parametrize("seed", SEEDS)
    def test_payload_bytes_match(self, seed):
        exact, fast = generator_pair(seed)
        e, f = span_columns(exact)[1], span_columns(fast)[1]
        assert f.mean() == pytest.approx(e.mean(), rel=0.02)
        assert f.std() == pytest.approx(e.std(), rel=0.05)
        assert ks_statistic(e, f) < KS_THRESHOLD

    @pytest.mark.parametrize("seed", SEEDS)
    def test_distinct_pages_match(self, seed):
        exact, fast = generator_pair(seed)
        e, f = tick_arrays(exact)[2], tick_arrays(fast)[2]
        assert f.mean() == pytest.approx(e.mean(), rel=0.02)
        assert f.std() == pytest.approx(e.std(), rel=0.08)
        assert ks_statistic(e, f) < KS_THRESHOLD

    @pytest.mark.parametrize("seed", SEEDS)
    def test_low_rate_payload_moments(self, seed):
        """At low arrival rates the lognormal-sum CLT is weakest, so the
        fast path is held to moment tolerances there (KS would compare
        a mildly skewed sum against its normal approximation)."""
        exact, fast = generator_pair(seed, rate=8.0)
        e, f = span_columns(exact)[1], span_columns(fast)[1]
        assert f.mean() == pytest.approx(e.mean(), rel=0.05)
        assert f.std() == pytest.approx(e.std(), rel=0.15)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_varying_rate_totals_match(self, seed):
        pattern = SinusoidalRate(mean=1200.0, amplitude=900.0, period=TICKS)
        exact, fast = generator_pair(seed, pattern=pattern)
        e = tick_arrays(exact)
        f = tick_arrays(fast)
        for e_col, f_col in zip(e, f):
            assert f_col.sum() == pytest.approx(e_col.sum(), rel=0.02)
        assert fast.total_records == pytest.approx(exact.total_records, rel=0.02)
        assert fast.total_bytes == pytest.approx(exact.total_bytes, rel=0.02)

    def test_sigma_zero_payload_is_deterministic(self):
        config = ClickStreamConfig(record_bytes_sigma=0.0, mean_record_bytes=200)
        _exact, fast = generator_pair(11, config=config)
        records, payload = span_columns(fast)
        assert np.array_equal(payload, records * 200)

    def test_large_batch_summary_mirrors_reference(self):
        """Ticks above LARGE_BATCH records get the reference path's
        deterministic ``records * mean`` summary, not a normal draw."""
        _exact, fast = generator_pair(5, rate=float(2 * FastClickStreamGenerator.LARGE_BATCH))
        records, payload = span_columns(fast, ticks=64)
        assert (records > FastClickStreamGenerator.LARGE_BATCH).all()
        assert np.array_equal(payload, records * 350)


class TestFastDeterminism:
    def test_same_seed_same_stream(self):
        a = tick_arrays(generator_pair(9)[1])
        b = tick_arrays(generator_pair(9)[1])
        for col_a, col_b in zip(a, b):
            assert np.array_equal(col_a, col_b)

    def test_span_and_tick_bit_identical(self):
        _, by_span = generator_pair(9)
        _, by_tick = generator_pair(9)
        ticks = 3000  # crosses a block boundary
        spanned = by_span.generate_span(1, ticks, 1)
        ticked = tick_columns(by_tick, ticks)
        assert spanned == ticked[:2]
        assert by_span.total_records == by_tick.total_records
        assert by_span.total_bytes == by_tick.total_bytes
        # Both drew the same blocks, distinct pages included.
        assert by_span._rng.bit_generator.state == by_tick._rng.bit_generator.state

    def test_uneven_span_boundaries_identical(self):
        """Block draws align to the absolute tick index, so how the
        engine happens to slice spans cannot change the stream."""
        _, reference = generator_pair(9)
        _, uneven = generator_pair(9)
        whole = reference.generate_span(1, 3000, 1)
        pieces = ([], [])
        start = 1
        for count in (7, 1000, 13, 1024, 956):
            part = uneven.generate_span(start, count, 1)
            for column, piece in zip(pieces, part):
                column.extend(piece)
            start += count
        assert tuple(pieces) == whole

    def test_time_must_be_monotonic(self):
        block = FastClickStreamGenerator.BLOCK
        _, fast = generator_pair(9)
        fast.generate_span(1, block, 1)
        # Advancing into the next block evicts the one behind it …
        fast.generate_span(block + 1, block, 1)
        # … so rewinding to evicted ticks is an error, not a re-draw.
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            fast.generate_span(1, 8, 1)

    def test_tick_length_cannot_change_mid_stream(self):
        _, fast = generator_pair(9)
        fast.generate_span(1, 8, 1)
        with pytest.raises(ConfigurationError, match="tick length"):
            fast.generate_span(60, 8, 60)

    def test_exact_flags(self):
        exact, fast = generator_pair(9)
        assert exact.exact is True
        assert fast.exact is False


def _flow(duration, spans, exact, seed=7):
    return (
        FlowBuilder("fastflow", seed=seed)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(SinusoidalRate(mean=1500.0, amplitude=900.0, period=duration))
        .control_all(style="adaptive", reference=60.0, period=30)
        .spans(spans)
        .exact(exact)
        .build()
    )


def _result_fingerprint(result):
    lines = []
    for kind in LayerKind:
        for label, trace in (
            ("util", result.utilization_trace(kind)),
            ("cap", result.capacity_trace(kind, period=300)),
            ("throttle", result.throttle_trace(kind)),
        ):
            lines.append(
                f"{kind.name}.{label} {list(trace.times)!r} "
                f"{[repr(v) for v in trace.values]!r}"
            )
    lines.append(f"cost={[(k, repr(v)) for k, v in sorted(result.cost_by_layer.items())]!r}")
    lines.append(f"drops={result.dropped_records},{result.dropped_writes}")
    return "\n".join(lines)


class TestManagerFastPath:
    def test_fast_span_equals_fast_per_tick_end_to_end(self):
        duration = 1800
        spanned = _flow(duration, spans=True, exact=False).run(duration)
        ticked = _flow(duration, spans=False, exact=False).run(duration)
        assert _result_fingerprint(spanned) == _result_fingerprint(ticked)

    def test_result_carries_exactness(self):
        assert _flow(120, spans=True, exact=False).run(120).exact is False
        assert _flow(120, spans=True, exact=True).run(120).exact is True

    def test_builder_defaults_to_exact(self):
        manager = (
            FlowBuilder("default", seed=1)
            .workload(ConstantRate(100.0))
            .build()
        )
        assert manager.exact is True
        assert isinstance(manager.generator, ClickStreamGenerator)
        assert not isinstance(manager.generator, FastClickStreamGenerator)

    def test_fast_manager_uses_fast_generator(self):
        manager = _flow(120, spans=True, exact=False)
        assert isinstance(manager.generator, FastClickStreamGenerator)

    def test_fast_run_is_deterministic(self):
        duration = 900
        a = _flow(duration, spans=True, exact=False).run(duration)
        b = _flow(duration, spans=True, exact=False).run(duration)
        assert _result_fingerprint(a) == _result_fingerprint(b)


class TestExactnessGuardrails:
    def _card(self, exact):
        return RunScorecard(
            name="guard", seed=1, duration_seconds=60, total_cost=1.0, exact=exact
        )

    def test_scorecard_carries_exactness(self):
        result = _flow(120, spans=True, exact=False).run(120)
        card = RunScorecard.from_result("fast", result)
        assert card.exact is False
        assert "APPROXIMATE" in card.summary()
        assert RunScorecard.from_dict(card.to_dict()).exact is False

    def test_mixed_exactness_comparison_raises(self):
        fast, exact = self._card(False).to_dict(), self._card(True).to_dict()
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            drift(exact, fast)
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            drift(fast, exact)

    def test_same_exactness_comparison_allowed(self):
        assert drift(self._card(False).to_dict(), self._card(False).to_dict()) == []
        assert drift(self._card(True).to_dict(), self._card(True).to_dict()) == []

    def test_fleet_mixed_exactness_comparison_raises(self):
        fast = FleetScorecard(name="f", seed=1, duration_seconds=60, exact=False)
        exact = FleetScorecard(name="f", seed=1, duration_seconds=60, exact=True)
        with pytest.raises(ConfigurationError, match="not bit-comparable"):
            drift(exact.to_dict(), fast.to_dict())

    def test_legacy_cards_default_to_exact(self):
        card = self._card(True)
        data = card.to_dict()
        del data["exact"]
        assert RunScorecard.from_dict(data).exact is True


def _fleet_specs(n_flows=3, duration=1800):
    return tuple(
        FleetFlowSpec(
            name=f"flow{i}",
            workload=SinusoidalRate(
                mean=1800.0 + 400.0 * i,
                amplitude=1400.0,
                period=duration,
                phase=duration // 4,
            ),
            controls={
                kind: LayerControlConfig(
                    controller=default_adaptive_controller(kind), period=60
                )
                for kind in LayerKind
            },
            storm=StormConfig(records_per_vm_per_second=800),
        )
        for i in range(n_flows)
    )


def _fleet_limits():
    return RegionLimits(
        max_instances=10,
        max_total_shards=12,
        max_total_write_units=2400,
        contention_threshold=0.7,
        contention_slope=0.3,
    )


def _fast_fleet_cases(n_cases=2, duration=1800):
    return [
        FleetScenarioSpec(
            name=f"fast-fleet{i}",
            flows=_fleet_specs(duration=duration),
            limits=_fleet_limits(),
            duration=duration,
            exact=False,
        )
        for i in range(n_cases)
    ]


class TestFleetFastPath:
    def test_fleet_result_carries_exactness(self):
        fleet = RegionFleetManager(
            list(_fleet_specs(duration=900)),
            limits=_fleet_limits(),
            seed=7,
            exact=False,
        )
        result = fleet.run(900)
        assert result.exact is False
        assert all(flow.exact is False for flow in result.flows.values())
        card = FleetScorecard.from_fleet_result("fast-fleet", result, seed=7)
        assert card.exact is False
        assert all(flow_card.exact is False for flow_card in card.flows.values())
        assert "APPROXIMATE" in card.summary()

    @staticmethod
    def _strip_wall(card):
        """Wall-clock fields are informational and vary run to run."""
        return dataclasses.replace(
            card,
            wall_seconds=0.0,
            flows={
                name: dataclasses.replace(
                    flow_card, wall_seconds=0.0, ticks_per_second=0.0
                )
                for name, flow_card in card.flows.items()
            },
        )

    def test_fast_sweep_jobs2_pickle_identical_to_jobs1(self):
        cases = _fast_fleet_cases()
        serial = sweep_fleet_scenarios(cases, base_seed=11, jobs=1)
        parallel = sweep_fleet_scenarios(_fast_fleet_cases(), base_seed=11, jobs=2)
        assert list(serial) == list(parallel)
        for name in serial:
            assert pickle.dumps(self._strip_wall(serial[name])) == pickle.dumps(
                self._strip_wall(parallel[name])
            )
            assert serial[name].exact is False


def fast_generator(pages=500, skew=1.0, seed=9, rate=1500.0):
    config = ClickStreamConfig(catalog_pages=pages, zipf_exponent=skew)
    return FastClickStreamGenerator(
        ConstantRate(rate), rng=derive_rng(seed, "fast"), config=config
    )


def reference_distinct(generator, counts):
    """The per-count sum each table entry must equal, bit for bit."""
    log_survival = generator._distinct_cache.log_survival
    return np.array(
        [float(np.sum(1.0 - np.exp(int(n) * log_survival))) if n else 0.0 for n in counts]
    )


class TestOccupancyTable:
    @pytest.mark.parametrize("pages, skew", [(1, 1.0), (500, 1.0), (2000, 0.0), (9000, 1.2)])
    def test_both_fill_orders_store_the_per_count_sum(self, pages, skew):
        counts = np.random.default_rng(pages).integers(0, 70_000, size=2048)
        counts[:8] = 0
        reference = reference_distinct(fast_generator(pages, skew), counts).tobytes()
        # Flush lookups reach half the counts first, then the block fill.
        scalar_first = fast_generator(pages, skew)
        looked_up = [scalar_first.expected_distinct(int(n)) for n in counts[::2]]
        gathered = scalar_first._distinct_cache.gather(counts)
        assert np.array(looked_up).tobytes() == reference_distinct(
            scalar_first, counts[::2]
        ).tobytes()
        assert gathered.tobytes() == reference
        # The block fill reaches half first, then the flush lookups.
        block_first = fast_generator(pages, skew)
        block_first._distinct_cache.gather(counts[::2])
        looked_up = [block_first.expected_distinct(int(n)) for n in counts]
        assert np.array(looked_up).tobytes() == reference

    @pytest.mark.parametrize("pages, skew", [(1, 1.0), (500, 1.0), (2000, 0.0), (9000, 1.2)])
    def test_fill_is_the_per_count_sum(self, pages, skew):
        """Each miss is computed in place in one working row, then
        summed: every value it returns or stores is the per-count sum
        bit for bit, also once later misses have reused the row."""
        table = fast_generator(pages, skew)._distinct_cache
        counts = [1, 2, 3, 17, 255, 4096, 70_000, DISTINCT_TABLE_CAP + 5]
        counts += np.random.default_rng(pages).integers(1, 200_000, size=200).tolist()
        filled = np.array([table.fill(n) for n in counts])
        log_survival = table.log_survival
        reference = np.array([float(np.sum(1.0 - np.exp(n * log_survival))) for n in counts])
        assert filled.tobytes() == reference.tobytes()
        stored = [k for k, n in enumerate(counts) if n < DISTINCT_TABLE_CAP]
        assert table.values[[counts[k] for k in stored]].tobytes() == reference[stored].tobytes()

    def test_one_page_catalog_builds_without_warnings(self):
        """With one page, p = 1 and log1p(-p) is -inf; building the
        generator, drawing a block and reading the table stay silent."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = fast_generator(pages=1, rate=3.0)
            fast.generate_span(1, 50, 1)
            assert fast.expected_distinct(7) == 1.0
            assert fast.expected_distinct(0) == 0.0

    def test_block_draws_fill_the_per_count_sum(self):
        fast = fast_generator(rate=2500.0)
        fast.generate_span(1, 3000, 1)
        values = fast._distinct_cache.values
        filled = np.flatnonzero(~np.isnan(values))
        assert len(filled) > 100
        assert values[filled].tobytes() == reference_distinct(fast, filled).tobytes()

    def test_table_grows_to_the_largest_count_seen(self):
        fast = fast_generator()
        fast.expected_distinct(5000)
        assert len(fast._distinct_cache.values) == 8192
        fast._distinct_cache.gather(np.array([3, 9000, 40]))
        assert len(fast._distinct_cache.values) == 16384

    def test_counts_at_or_above_the_cap_are_summed_not_stored(self):
        fast = fast_generator()
        table = fast._distinct_cache
        # A first count far past the cap still stops the table at the cap.
        beyond = np.array([4 * DISTINCT_TABLE_CAP, 7])
        assert table.gather(beyond).tobytes() == reference_distinct(fast, beyond).tobytes()
        assert len(table.values) == DISTINCT_TABLE_CAP
        counts = [DISTINCT_TABLE_CAP - 1, DISTINCT_TABLE_CAP, DISTINCT_TABLE_CAP + 1,
                  3 * DISTINCT_TABLE_CAP]
        looked_up = [fast.expected_distinct(n) for n in counts]
        assert np.array(looked_up).tobytes() == reference_distinct(fast, counts).tobytes()
        block = np.array(counts * 2 + [0, 12])
        assert table.gather(block).tobytes() == reference_distinct(fast, block).tobytes()
        assert len(table.values) == DISTINCT_TABLE_CAP
        assert np.isnan(table.values[DISTINCT_TABLE_CAP - 2])
        assert table.values[DISTINCT_TABLE_CAP - 1] == looked_up[0]

    def test_negative_count_raises(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            fast_generator().expected_distinct(-1)

    def test_adopting_generators_share_one_table(self):
        first, second = fast_generator(seed=1), fast_generator(seed=2)
        first.expected_distinct(300)
        second._distinct_cache.gather(np.array([40, 70_000]))
        assert second.adopt_distinct_cache(first)
        table = first._distinct_cache
        assert second._distinct_cache is table
        # The pooled table keeps what either filled.
        counts = [40, 300, 70_000]
        assert table.values[counts].tobytes() == reference_distinct(first, counts).tobytes()
        other_catalog = fast_generator(pages=800)
        assert not other_catalog.adopt_distinct_cache(first)
        assert other_catalog._distinct_cache is not table

    def test_fleet_flows_pool_one_table(self):
        fleet = RegionFleetManager(
            list(_fleet_specs(n_flows=3, duration=600)),
            limits=_fleet_limits(),
            seed=7,
            exact=False,
        )
        tables = {id(m.generator._distinct_cache) for m in fleet.managers.values()}
        assert len(tables) == 1
