"""The workload dependency analyzer (paper Sec. 3.1).

Feeds workload logs — metric traces per layer — through pairwise linear
regression to discover which layers' resource usages move together.
Significant dependencies become constraints for the resource share
analyzer (Eq. 5) and sanity context for operators ("how much CPU do we
need to support the maximum write capacity of a Shard?").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import RegressionError
from repro.core.flow import LayerKind
from repro.dependency.lag import CrossCorrelation, cross_correlation
from repro.dependency.regression import RegressionResult, fit_linear
from repro.workload.traces import Trace


@dataclass(frozen=True)
class MetricRef:
    """Identifies a workload measure: which layer, which metric."""

    layer: LayerKind
    metric: str

    def __str__(self) -> str:
        return f"{self.layer.name.lower()}.{self.metric}"


@dataclass(frozen=True)
class DependencyModel:
    """A fitted Eq. 1 dependency: ``target = b0 + b1 * source + eps``."""

    source: MetricRef
    target: MetricRef
    result: RegressionResult

    def predict(self, source_value: float) -> float:
        """Predict the target measure from a source measure value."""
        return self.result.predict(source_value)

    def predict_interval(
        self, source_value: float, confidence: float = 0.95
    ) -> tuple[float, float]:
        """Prediction interval for a new observation at ``source_value``.

        What capacity planning should use: e.g. "how much CPU might the
        analytics layer need to support a full shard?" wants the upper
        end of this interval, not the Eq. 2 point estimate.
        """
        return self.result.prediction_interval(source_value, confidence)

    def is_significant(self, min_abs_r: float = 0.7, alpha: float = 0.01) -> bool:
        """Strong and statistically significant dependency?"""
        return abs(self.result.r) >= min_abs_r and self.result.p_value <= alpha

    def equation(self, digits: int = 4) -> str:
        return self.result.equation(self.target.metric, self.source.metric, digits)

    def __str__(self) -> str:
        return (
            f"{self.target} ~ {self.result.slope:.4g}*{self.source} + "
            f"{self.result.intercept:.4g}  (r={self.result.r:.3f}, "
            f"p={self.result.p_value:.2g}, n={self.result.n})"
        )


def _align_columns(a: Trace, b: Trace) -> tuple[list[float], list[float]]:
    """Pair up values of two traces on their common timestamps.

    Returns the aligned columns however few common timestamps there
    are; callers enforce the >= 3 minimum.
    """
    b_by_time = dict(zip(b.times, b.values))
    xs: list[float] = []
    ys: list[float] = []
    for t, v in a:
        if t in b_by_time:
            xs.append(v)
            ys.append(b_by_time[t])
    return xs, ys


def _too_few(a_name: str, b_name: str, common: int) -> RegressionError:
    return RegressionError(
        f"traces {a_name!r} and {b_name!r} share only {common} "
        "timestamps; need >= 3 (resample them to a common period first)"
    )


class WorkloadDependencyAnalyzer:
    """Scans every cross-layer metric pair for linear dependencies.

    Usage::

        analyzer = WorkloadDependencyAnalyzer()
        analyzer.add_series(LayerKind.INGESTION, "IncomingRecords", trace_in)
        analyzer.add_series(LayerKind.ANALYTICS, "CPUUtilization", trace_cpu)
        models = analyzer.analyze()          # significant pairs only
        model = analyzer.dependency_between(src_ref, dst_ref)  # one pair
    """

    def __init__(self, min_abs_r: float = 0.7, alpha: float = 0.01) -> None:
        if not 0.0 <= min_abs_r <= 1.0:
            raise RegressionError(f"min_abs_r must be in [0, 1], got {min_abs_r}")
        if not 0.0 < alpha < 1.0:
            raise RegressionError(f"alpha must be in (0, 1), got {alpha}")
        self.min_abs_r = min_abs_r
        self.alpha = alpha
        self._series: dict[MetricRef, Trace] = {}
        # Aligned columns per ordered (source, target) pair, shared by
        # fit_pair/correlation/analyze/correlation_matrix so each
        # unordered pair is aligned once, not once per direction per
        # caller. A successful entry holds the (xs, ys) columns; a
        # failed one holds the common-timestamp count (int) so the
        # per-ordering error message can be reconstructed.
        self._align_cache: dict[
            tuple[MetricRef, MetricRef], tuple[list[float], list[float]] | int
        ] = {}

    def add_series(self, layer: LayerKind, metric: str, trace: Trace) -> MetricRef:
        """Register a workload-log series for one layer metric."""
        if len(trace) < 3:
            raise RegressionError(f"series {layer.name}/{metric} has fewer than 3 points")
        ref = MetricRef(layer, metric)
        self._series[ref] = trace
        # The new (or replaced) trace invalidates any alignment that
        # involved this ref; dropping the whole memo is cheap and safe.
        self._align_cache.clear()
        return ref

    @property
    def series(self) -> dict[MetricRef, Trace]:
        return dict(self._series)

    def fit_multi(self, sources: list[MetricRef], target: MetricRef):
        """Fit the target on several source measures at once.

        Generalizes Eq. 1 to multiple explanatory measures — e.g. CPU
        explained jointly by record rate *and* payload bytes. Returns a
        :class:`~repro.dependency.regression.MultipleRegressionResult`.
        Series are aligned on timestamps common to the target and every
        source.
        """
        from repro.dependency.regression import fit_multiple

        if not sources:
            raise RegressionError("need at least one source measure")
        if target in sources:
            raise RegressionError("target must not be one of the sources")
        target_trace = self._trace(target)
        source_maps = [dict(zip(t.times, t.values)) for t in map(self._trace, sources)]
        rows: list[list[float]] = []
        ys: list[float] = []
        for t, y in target_trace:
            if all(t in m for m in source_maps):
                rows.append([m[t] for m in source_maps])
                ys.append(y)
        if len(rows) < len(sources) + 2:
            raise RegressionError(
                f"only {len(rows)} aligned observations for {len(sources)} sources"
            )
        return fit_multiple(rows, ys)

    def fit_pair(self, source: MetricRef, target: MetricRef) -> DependencyModel:
        """Fit Eq. 1 for one ordered (source -> target) pair."""
        if source == target:
            raise RegressionError("source and target must differ")
        xs, ys = self._aligned(source, target)
        return DependencyModel(source=source, target=target, result=fit_linear(xs, ys))

    def correlation(self, source: MetricRef, target: MetricRef, max_lag: int = 0) -> CrossCorrelation:
        """Lagged cross-correlation between two registered series."""
        xs, ys = self._aligned(source, target)
        return cross_correlation(xs, ys, max_lag)

    def analyze(self, cross_layer_only: bool = True) -> list[DependencyModel]:
        """Fit all ordered pairs; return the significant ones, strongest first.

        With ``cross_layer_only`` (the default, matching Eq. 1's
        ``L1 != L2`` requirement) same-layer pairs are skipped.
        """
        models: list[DependencyModel] = []
        refs = list(self._series)
        for source in refs:
            for target in refs:
                if source == target:
                    continue
                if cross_layer_only and source.layer == target.layer:
                    continue
                model = self.fit_pair(source, target)
                if model.is_significant(self.min_abs_r, self.alpha):
                    models.append(model)
        models.sort(key=lambda m: abs(m.result.r), reverse=True)
        return models

    def dependency_between(self, source: MetricRef, target: MetricRef) -> DependencyModel | None:
        """The fitted pair if significant, else None (paper: "not all the
        layers are dependent on each other")."""
        model = self.fit_pair(source, target)
        return model if model.is_significant(self.min_abs_r, self.alpha) else None

    def correlation_matrix(self) -> str:
        """Render all pairwise correlations as a table.

        The operator-facing companion of :meth:`analyze`: every
        registered measure against every other (same-layer pairs
        included), with the Pearson coefficient, so "no correlation"
        findings (like the paper's Kinesis↔DynamoDB observation) are
        visible rather than silently filtered.
        """
        refs = list(self._series)
        if len(refs) < 2:
            raise RegressionError("need at least two series for a correlation matrix")
        width = max(len(str(r)) for r in refs)
        header = " " * (width + 2) + "  ".join(f"{str(r):>{width}}" for r in refs)
        lines = [header]
        for row_ref in refs:
            cells = []
            for col_ref in refs:
                if row_ref == col_ref:
                    cells.append(f"{'1.000':>{width}}")
                    continue
                try:
                    xs, ys = self._aligned(row_ref, col_ref)
                    from repro.dependency.regression import pearson_r

                    cells.append(f"{pearson_r(xs, ys):>+{width}.3f}")
                except RegressionError:
                    cells.append(f"{'n/a':>{width}}")
            lines.append(f"{str(row_ref):<{width}}  " + "  ".join(cells))
        return "\n".join(lines)

    def _aligned(self, source: MetricRef, target: MetricRef) -> tuple[list[float], list[float]]:
        """Cached aligned (source values, target values) columns.

        Each unordered pair is aligned at most once: trace timestamps
        are strictly increasing, so the common timestamps come out in
        the same (sorted) order whichever trace drives the scan, and
        the reversed ordering is exactly the cached columns swapped.
        """
        cache = self._align_cache
        entry = cache.get((source, target))
        if entry is None:
            reverse = cache.get((target, source))
            if reverse is not None:
                entry = reverse if isinstance(reverse, int) else (reverse[1], reverse[0])
            else:
                xs, ys = _align_columns(self._trace(source), self._trace(target))
                entry = (xs, ys) if len(xs) >= 3 else len(xs)
            cache[(source, target)] = entry
        if isinstance(entry, int):
            raise _too_few(self._trace(source).name, self._trace(target).name, entry)
        return entry

    def _trace(self, ref: MetricRef) -> Trace:
        try:
            return self._series[ref]
        except KeyError:
            known = ", ".join(str(r) for r in self._series) or "<none>"
            raise RegressionError(f"unknown series {ref}; registered: {known}") from None
