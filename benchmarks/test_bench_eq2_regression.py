"""E2 — Eq. 2: the fitted cross-layer dependency model.

Paper (Sec. 3.1): "the dependency between the ingestion and the
analytics layers is formulated as: CPU ~= 0.0002 * WriteCapacity + 4.8"
— a linear regression of analytics CPU on the ingestion layer's write
volume (records/minute).

This benchmark runs the workload dependency analyzer over the Fig. 2
logs and reports the fitted equation. Shape targets: positive slope of
the order of 2e-4 CPU-percent per record/minute, intercept near the
4.8 % idle CPU of the topology, and a significant fit.
"""

import pytest

from repro import LayerKind
from repro.dependency import WorkloadDependencyAnalyzer
from repro.dependency.analyzer import MetricRef

from benchmarks.conftest import static_fig2_run, write_report


@pytest.fixture(scope="module")
def analyzer():
    result = static_fig2_run(duration=550 * 60, seed=7)
    analyzer = WorkloadDependencyAnalyzer(min_abs_r=0.7, alpha=0.01)
    analyzer.add_series(
        LayerKind.INGESTION,
        "WriteCapacity",
        result.trace("AWS/Kinesis", "IncomingRecords", period=60, statistic="Sum",
                     dimensions=result.layer_dimensions[LayerKind.INGESTION]),
    )
    analyzer.add_series(
        LayerKind.ANALYTICS,
        "CPU",
        result.trace("Custom/Storm", "CPUUtilization", period=60,
                     dimensions=result.layer_dimensions[LayerKind.ANALYTICS]),
    )
    return analyzer


def test_eq2_regression(analyzer, results_dir):
    source = MetricRef(LayerKind.INGESTION, "WriteCapacity")
    target = MetricRef(LayerKind.ANALYTICS, "CPU")

    model = analyzer.fit_pair(source, target)
    fit = model.result
    ci_low, ci_high = fit.slope_confidence_interval(0.95)
    # The paper's worked example: CPU needed to absorb one full shard
    # (1,000 records/second = 60,000 records/minute).
    shard_cpu = model.predict(60_000)

    lines = [
        "E2 — Eq. 2: fitted dependency model (CPU on ingestion records/min)",
        f"  fitted:     {fit.equation('CPU', 'WriteCapacity')}",
        "  paper:      CPU ~ 0.0002*WriteCapacity + 4.8",
        f"  r = {fit.r:.3f}, R^2 = {fit.r_squared:.3f}, p = {fit.p_value:.2e}, n = {fit.n}",
        f"  slope 95% CI: [{ci_low:.6f}, {ci_high:.6f}]",
        f"  CPU to absorb one full shard (60k rec/min): {shard_cpu:.1f}%",
    ]
    write_report(results_dir, "E2_eq2_regression", "\n".join(lines))

    assert model.is_significant()
    assert fit.slope == pytest.approx(2e-4, rel=0.5), "slope should be ~0.0002"
    assert fit.intercept == pytest.approx(4.8, abs=1.5), "intercept should be ~4.8 (idle CPU)"
    assert ci_low > 0, "slope CI must exclude zero"


def test_eq2_analyzer_discovers_the_dependency(analyzer, results_dir):
    """The analyze() scan must surface the Eq. 2 pair on its own."""
    models = analyzer.analyze()
    pairs = {(m.source.metric, m.target.metric) for m in models}
    assert ("WriteCapacity", "CPU") in pairs
