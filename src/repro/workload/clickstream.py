"""Click-stream generator.

Stands in for the demo's "random multi-threaded click stream generator
deployed on several EC2 instances": a seeded source of click events
shaped by a :class:`~repro.workload.generators.RatePattern`.

Each tick yields a :class:`ClickBatch` with

* ``records`` — Poisson-sampled click events around the pattern rate;
* ``payload_bytes`` — total payload (per-record sizes are log-normal
  around a configurable mean, as real click events are);
* ``distinct_keys`` — the expected number of *distinct pages* hit, under
  a Zipf popularity law over the page catalogue.

The distinct-page count is what the analytics layer's windowed
aggregation turns into storage writes. Because distinct counts grow
only logarithmically with volume under Zipf, storage-layer writes stay
nearly flat while click volume swings — reproducing the paper's
observation (Sec. 3.1) that Kinesis write volume and DynamoDB write
capacity were *uncorrelated* for the click-stream flow.

Two implementations share this module:

* :class:`ClickStreamGenerator` — the bit-exact reference. Draws
  interleave per tick on one RNG stream; every batched execution path
  (span mode, the metric pipeline) is bit-identical to it.
* :class:`FastClickStreamGenerator` — the opt-in ``exact=False`` path.
  Statistically identical, block-vectorized, roughly an order of
  magnitude cheaper per tick. See its docstring for the approximation
  contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigurationError
from repro.simulation.clock import SimClock
from repro.workload.generators import RateGrid, RatePattern

#: Entries the fast generator's occupancy table may hold: 2^20 float64
#: values, 8 MiB. The table grows by doubling to the largest record
#: count it has seen and stops here; a count at or above the cap is
#: summed on every call and never stored.
DISTINCT_TABLE_CAP = 1 << 20

#: Survival factors one table fill computes at a time (2 MiB of
#: float64), so a fill's temporary stays bounded for any catalog size.
_FILL_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class ClickBatch:
    """One tick's worth of generated click events."""

    records: int
    payload_bytes: int
    distinct_keys: int


@dataclass(frozen=True)
class ClickStreamConfig:
    """Shape of the click events themselves (not their arrival rate).

    Attributes
    ----------
    mean_record_bytes:
        Average serialized click-event size.
    record_bytes_sigma:
        Log-normal shape parameter of the size distribution.
    catalog_pages:
        Number of distinct pages on the simulated site.
    zipf_exponent:
        Popularity skew; ~1.0 is typical for web page popularity.
    """

    mean_record_bytes: int = 350
    record_bytes_sigma: float = 0.35
    catalog_pages: int = 500
    zipf_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_record_bytes <= 0:
            raise ConfigurationError("mean_record_bytes must be positive")
        if self.record_bytes_sigma < 0:
            raise ConfigurationError("record_bytes_sigma must be non-negative")
        if self.catalog_pages <= 0:
            raise ConfigurationError("catalog_pages must be positive")
        if self.zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be non-negative")


class ClickStreamGenerator:
    """Seeded click-event source driven by a rate pattern."""

    #: Whether this source is the bit-exact reference. The fast
    #: subclass flips it; managers and scorecards surface the flag so
    #: approximate runs can never masquerade as exact ones.
    exact = True

    #: Batches above this size summarise the per-record size draws by
    #: their expectation, keeping the per-tick cost constant.
    LARGE_BATCH = 10_000

    def __init__(
        self,
        pattern: RatePattern,
        rng: np.random.Generator,
        config: ClickStreamConfig | None = None,
    ) -> None:
        self.pattern = pattern
        self.config = config or ClickStreamConfig()
        self._rng = rng
        # Zipf page-popularity probabilities, computed once.
        ranks = np.arange(1, self.config.catalog_pages + 1, dtype=float)
        weights = ranks ** -self.config.zipf_exponent
        self._page_probs = weights / weights.sum()
        # Log-normal location parameter for the configured mean size.
        sigma = self.config.record_bytes_sigma
        self._payload_mu = float(
            np.log(self.config.mean_record_bytes) - 0.5 * sigma * sigma
        )
        self._total_records = 0
        self._total_bytes = 0
        self._grid: RateGrid | None = None
        # expected_distinct is a pure function of the record count and
        # the (fixed) popularity law; Poisson-sampled counts revisit the
        # same values constantly, so the occupancy sum is memoized.
        self._distinct_cache: dict[int, float] = {}

    def adopt_distinct_cache(self, other: "ClickStreamGenerator") -> bool:
        """Pool the expected-distinct memo (the fast class's table) with
        ``other``'s.

        The occupancy sum is a pure function of the record count and
        the (class-specific) popularity-law formula, so generators of
        the same class and distinct-law config can share one memo: the
        fill values are bit-identical no matter which generator
        computes them first. Exact and fast generators never share —
        their formulas round differently — hence the exact type check.
        Returns whether sharing happened.
        """
        if type(other) is not type(self):
            return False
        if (
            other.config.catalog_pages != self.config.catalog_pages
            or other.config.zipf_exponent != self.config.zipf_exponent
        ):
            return False
        if other._distinct_cache is self._distinct_cache:
            return True
        other._distinct_cache.update(self._distinct_cache)
        self._distinct_cache = other._distinct_cache
        return True

    def generate(self, clock: SimClock) -> ClickBatch:
        """Produce the click events arriving during the current tick.

        Arrival rates are read through a :class:`RateGrid` chunked on
        the clock's tick length, so a deep pattern stack is evaluated
        one array chunk at a time instead of per tick — bit-identical to
        calling ``pattern.rate(now)`` directly, by the ``values()`` grid
        contract.
        """
        grid = self._grid
        if grid is None or grid.step != clock.tick_seconds:
            grid = self._grid = RateGrid(self.pattern, clock.tick_seconds)
        expected = grid.rate_at(clock.now) * clock.tick_seconds
        records = self._poisson_count(expected)
        if records == 0:
            return ClickBatch(0, 0, 0)
        payload = self._sample_payload(records)
        distinct = self._expected_distinct_pages(records)
        self._total_records += records
        self._total_bytes += payload
        return ClickBatch(records=records, payload_bytes=payload, distinct_keys=distinct)

    def generate_span(
        self, start: int, count: int, tick_seconds: int
    ) -> tuple[list[int], list[int]]:
        """Per-tick batches for the ``count`` ticks at ``start``,
        ``start + tick_seconds``, ...

        The click stream's RNG draws interleave *within* each tick
        (arrival Poisson, then per-record size log-normals, then the
        distinct-page Poisson, all on one stream), so the draws stay a
        per-tick loop — what the span path saves is the per-tick grid
        refill, config lookups and ``ClickBatch`` allocation. Returns
        the ``(records, payload_bytes)`` columns, bit-identical to
        ``count`` :meth:`generate` calls. The distinct-page count is
        drawn, to keep the stream, but not returned: the span path's
        Storm cluster derives each window's writes from its record
        count.
        """
        grid = self._grid
        if grid is None or grid.step != tick_seconds:
            grid = self._grid = RateGrid(self.pattern, tick_seconds)
        rates = grid.rates_span(start, count)
        poisson_count = self._poisson_count
        sample_payload = self._sample_payload
        distinct_pages = self._expected_distinct_pages
        records_col: list[int] = []
        payload_col: list[int] = []
        span_records = 0
        span_bytes = 0
        for rate in rates:
            records = poisson_count(rate * tick_seconds)
            if records == 0:
                payload = 0
            else:
                payload = sample_payload(records)
                distinct_pages(records)
                span_records += records
                span_bytes += payload
            records_col.append(records)
            payload_col.append(payload)
        self._total_records += span_records
        self._total_bytes += span_bytes
        return records_col, payload_col

    def _poisson_count(self, expected: float) -> int:
        """One guarded Poisson draw.

        Every count in the generator — tick arrivals and distinct-page
        jitter alike — goes through this single seam: the ``expected >
        0`` guard keeps zero- and negative-rate ticks off the RNG
        stream, and :class:`FastClickStreamGenerator` replaces the
        whole per-draw scheme around it with aligned block draws.
        """
        return int(self._rng.poisson(expected)) if expected > 0 else 0

    def _sample_payload(self, records: int) -> int:
        """Total bytes for ``records`` events, log-normal per-record sizes.

        For large batches the per-record draws are summarised by their
        expectation to keep the per-tick cost constant.
        """
        sigma = self.config.record_bytes_sigma
        if sigma == 0.0 or records > self.LARGE_BATCH:
            return int(records * self.config.mean_record_bytes)
        sizes = self._rng.lognormal(self._payload_mu, sigma, size=records)
        return int(sizes.sum())

    def expected_distinct(self, records: int) -> float:
        """Expected number of distinct pages among ``records`` hits.

        The exact occupancy expectation ``sum_k 1 - (1 - p_k)^n`` under
        the generator's Zipf popularity law. This is the aggregation
        model the analytics layer uses to turn a window of clicks into
        storage writes (one write per distinct page per window): for
        windows much larger than the hot-page set it *saturates*, which
        is why storage write volume decouples from raw click volume
        (the paper's Sec. 3.1 no-correlation observation).
        """
        if records < 0:
            raise ConfigurationError("records must be non-negative")
        if records == 0:
            return 0.0
        cached = self._distinct_cache.get(records)
        if cached is None:
            cached = float(np.sum(1.0 - np.power(1.0 - self._page_probs, records)))
            self._distinct_cache[records] = cached
        return cached

    def _expected_distinct_pages(self, records: int) -> int:
        """Per-tick distinct page count with Poisson jitter."""
        jittered = self._poisson_count(self.expected_distinct(records))
        return int(min(self.config.catalog_pages, jittered))

    @property
    def total_records(self) -> int:
        """Records generated since construction."""
        return self._total_records

    @property
    def total_bytes(self) -> int:
        return self._total_bytes


class _OccupancyTable:
    """The fast path's occupancy expectation, one float64 per record count.

    ``values[n]`` holds ``sum_k 1 - exp(n * log1p(-p_k))`` once a fill
    has reached ``n``, and NaN before; ``values[0]`` is 0. Every entry
    is reduced from its own contiguous survival row with numpy's
    pairwise sum, so :meth:`fill` and :meth:`gather` store the same
    bits for a count whichever of them reaches it first.
    """

    def __init__(self, log_survival: np.ndarray) -> None:
        self.log_survival = log_survival
        self.values = np.zeros(1)
        # fill's working row: each miss is computed in place, no temporaries.
        self._row = np.empty_like(log_survival)

    def fill(self, n: int) -> float:
        """The expectation for one count the table misses, stored there
        if ``n`` is below the cap."""
        self._grow(n)
        row = self._row
        np.multiply(self.log_survival, n, out=row)
        np.exp(row, out=row)
        np.subtract(1.0, row, out=row)
        value = float(np.add.reduce(row))
        if n < len(self.values):
            self.values[n] = value
        return value

    def gather(self, records: np.ndarray) -> np.ndarray:
        """The expectations for a block of counts: one gather, plus one
        fill of the distinct counts it misses."""
        top = int(records.max())
        self._grow(top)
        values = self.values
        if top < len(values):
            out = values[records]
        else:
            out = np.full(len(records), np.nan)
            below = records < len(values)
            out[below] = values[records[below]]
        missing = np.isnan(out)
        if missing.any():
            counts, inverse = np.unique(records[missing], return_inverse=True)
            sums = self._sums(counts)
            out[missing] = sums[inverse]
            stored = counts < len(values)
            values[counts[stored]] = sums[stored]
        return out

    def update(self, other: "_OccupancyTable") -> None:
        """Take every entry ``other`` holds, as ``dict.update`` does."""
        theirs = other.values
        self._grow(len(theirs) - 1)
        filled = ~np.isnan(theirs)
        self.values[: len(theirs)][filled] = theirs[filled]

    def _sums(self, counts: np.ndarray) -> np.ndarray:
        """The expectations for ``counts``, a bounded chunk of rows at a time."""
        log_survival = self.log_survival
        rows = max(1, _FILL_ELEMENTS // len(log_survival))
        sums = np.empty(len(counts))
        for lo in range(0, len(counts), rows):
            survival = np.exp(counts[lo : lo + rows, None] * log_survival)
            sums[lo : lo + rows] = np.add.reduce(1.0 - survival, axis=1)
        return sums

    def _grow(self, top: int) -> None:
        """Double the table past ``top`` if it is shorter, never past the cap."""
        size = len(self.values)
        if size <= top and size < DISTINCT_TABLE_CAP:
            grown = np.full(min(DISTINCT_TABLE_CAP, 1 << int(top).bit_length()), np.nan)
            grown[:size] = self.values
            self.values = grown


class FastClickStreamGenerator(ClickStreamGenerator):
    """Block-vectorized approximate click source — the ``exact=False`` path.

    Draws the same three quantities as the reference, but in
    :data:`BLOCK`-sized numpy batches instead of per-tick interleaved
    scalar draws:

    * **arrivals** — one vectorized ``poisson(rate * dt)`` over the
      whole block;
    * **payload bytes** — the log-normal-sum moment approximation: one
      block of standard normals scaled to the exact sum moments. For
      ``n`` records of per-record mean ``m`` and shape ``sigma``, the
      sum has mean ``n * m`` and standard deviation
      ``m * sqrt(n * (e^{sigma^2} - 1))``; the normal approximation is
      the CLT limit the exact path converges to. The reference path's
      deterministic summaries are mirrored exactly (``sigma == 0`` and
      ``records > LARGE_BATCH`` ticks get ``records * mean``);
    * **distinct pages** — the occupancy expectation read for the
      whole block from a dense table indexed by record count (one
      gather, plus one matrix fill of the counts it misses), then one
      block ``poisson`` jitter draw clipped to the catalogue size.

    The table replaces the reference's dict memo. It doubles up to the
    largest count it has seen and never past :data:`DISTINCT_TABLE_CAP`
    entries (8 MiB); a count at or above the cap is summed on each call
    and not stored. Memory is therefore bounded whatever the rate and
    tick length, and no option is needed: every stored value is the
    per-count sum itself, so the cap changes speed, never results.

    The approximation contract (see DESIGN.md):

    * marginal distributions match the reference — validated by the
      seeded moment/KS tests in ``tests/test_fast_workload.py``;
    * determinism per seed is preserved: same seed, same pattern, same
      tick length ⇒ same stream;
    * draw blocks are aligned to the *absolute tick index*, never to
      span boundaries, so fast span runs are bit-identical to fast
      per-tick runs — the span-equivalence property the exact path has,
      preserved within the fast path;
    * what is given up is bit-equality with the exact path: the RNG
      stream is consumed in a different order, so ``exact=False``
      results must never be compared against exact ones (scorecard
      comparisons enforce this by raising).

    Simulated time must advance monotonically (it does, under the
    engine): blocks behind the read cursor are evicted and cannot be
    re-drawn.
    """

    exact = False

    #: Draw-block length in ticks. Big enough to amortize the numpy
    #: call overhead, small enough that short runs don't over-draw.
    BLOCK = 1024

    def __init__(
        self,
        pattern: RatePattern,
        rng: np.random.Generator,
        config: ClickStreamConfig | None = None,
    ) -> None:
        super().__init__(pattern, rng, config=config)
        # Per-record size sd factor: sd(sum of n) = mean * sqrt(n) * _payload_sd1.
        sigma = self.config.record_bytes_sigma
        self._payload_sd1 = float(
            self.config.mean_record_bytes * math.sqrt(math.expm1(sigma * sigma))
        )
        # log(1 - p_k) per page: occupancy survival factors become one
        # exp() instead of the reference's np.power. The table (pooled
        # like the reference's memo, by adopt_distinct_cache) serves
        # both the block fill and the Storm cluster's flush lookups. A
        # one-page catalog's log1p(-1) is -inf, and exp(n * -inf) = 0
        # gives every count above 0 its one distinct page.
        with np.errstate(divide="ignore"):
            log_survival = np.log1p(-self._page_probs)
        self._distinct_cache = _OccupancyTable(log_survival)
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._blocks_drawn = 0
        self._block_step: int | None = None

    def generate(self, clock: SimClock) -> ClickBatch:
        index = self._tick_index(clock.now, clock.tick_seconds)
        block, offset = divmod(index, self.BLOCK)
        records_col, payload_col, distinct_col = self._block(
            block, block, clock.tick_seconds
        )
        records = int(records_col[offset])
        payload = int(payload_col[offset])
        distinct = int(distinct_col[offset])
        self._total_records += records
        self._total_bytes += payload
        return ClickBatch(records=records, payload_bytes=payload, distinct_keys=distinct)

    def generate_span(
        self, start: int, count: int, tick_seconds: int
    ) -> tuple[list[int], list[int]]:
        """The ``(records, payload_bytes)`` columns of the ``count``
        ticks at ``start``; the blocks they fall in are drawn whole,
        distinct pages included."""
        if count <= 0:
            return [], []
        first = self._tick_index(start, tick_seconds)
        first_block, offset = divmod(first, self.BLOCK)
        last_block = (first + count - 1) // self.BLOCK
        columns = self._block(first_block, last_block, tick_seconds)[:2]
        if first_block == last_block:
            sliced = tuple(col[offset : offset + count] for col in columns)
        else:
            tails = [
                self._blocks[b] for b in range(first_block + 1, last_block + 1)
            ]
            sliced = tuple(
                np.concatenate([col, *(t[i] for t in tails)])[offset : offset + count]
                for i, col in enumerate(columns)
            )
        records_col, payload_col = sliced
        self._total_records += int(records_col.sum())
        self._total_bytes += int(payload_col.sum())
        return records_col.tolist(), payload_col.tolist()

    def _tick_index(self, now: int, tick_seconds: int) -> int:
        """Absolute 0-based tick index for the tick ending at ``now``.

        The engine advances the clock before generating, so the first
        tick of a run ends at ``t = tick_seconds`` — index 0. Block
        alignment on this index is what makes fast span and fast
        per-tick runs consume identical draw streams.
        """
        index = now // tick_seconds - 1
        if index < 0:
            raise ConfigurationError(
                "fast click-stream ticks start at t = tick_seconds"
            )
        return index

    def _block(
        self, first: int, last: int, step: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ensure blocks ``first..last`` are drawn; return block ``first``.

        Blocks are always drawn in index order — that *is* the fast
        path's RNG stream — and blocks behind ``first`` are evicted
        (time is monotone under the engine).
        """
        if self._block_step is None:
            self._block_step = int(step)
            self._grid = RateGrid(self.pattern, step)
        elif step != self._block_step:
            raise ConfigurationError(
                "fast click-stream generator cannot change tick length "
                f"mid-stream ({self._block_step}s -> {step}s)"
            )
        blocks = self._blocks
        if first < self._blocks_drawn and first not in blocks:
            raise ConfigurationError(
                "fast click-stream ticks must be requested in "
                "non-decreasing time order"
            )
        while self._blocks_drawn <= last:
            blocks[self._blocks_drawn] = self._draw_block(self._blocks_drawn)
            self._blocks_drawn += 1
        for stale in [b for b in blocks if b < first]:
            del blocks[stale]
        return blocks[first]

    def _draw_block(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized draws for ticks ``index*BLOCK .. +BLOCK-1``."""
        block = self.BLOCK
        step = self._block_step
        assert self._grid is not None and step is not None
        first_time = (index * block + 1) * step
        lam = self._grid.rates_array(first_time, block) * float(step)
        # The scalar path's `expected > 0` guard, vectorized: negative
        # pattern excursions draw a zero-rate Poisson instead of dying.
        np.clip(lam, 0.0, None, out=lam)
        records = self._rng.poisson(lam)
        normals = self._rng.standard_normal(block)
        mean = self.config.mean_record_bytes
        sigma = self.config.record_bytes_sigma
        if sigma == 0.0:
            payload = records * mean
        else:
            approx = records * float(mean) + np.sqrt(records) * (
                self._payload_sd1 * normals
            )
            payload = np.maximum(approx, 0.0).astype(np.int64)
            large = records > self.LARGE_BATCH
            if large.any():
                # Mirror the reference path's deterministic summary for
                # very large batches.
                payload[large] = records[large] * mean
        expected_pages = self._distinct_cache.gather(records)
        jitter = self._rng.poisson(expected_pages)
        distinct = np.minimum(jitter, self.config.catalog_pages)
        return records, payload, distinct

    def expected_distinct(self, records: int) -> float:
        """The occupancy expectation via ``exp(n * log(1 - p))``.

        Same quantity as the reference's ``(1 - p) ** n`` form up to
        floating-point association, read from the same table the block
        fill writes: the Storm cluster's distinct estimator probes it
        at every window flush (every ``window_seconds``), and a count
        may reach the table first from either side depending on span
        scheduling. Both sides store the per-count sum bit for bit —
        that is what keeps fast span runs bit-identical to fast
        per-tick runs.
        """
        table = self._distinct_cache
        values = table.values
        if 0 <= records < len(values):
            value = values.item(records)
            if value == value:  # not NaN: filled
                return value
        if records < 0:
            raise ConfigurationError("records must be non-negative")
        return table.fill(records)
