"""E1 + E8 — Fig. 2: cross-layer workload correlation.

Paper: "The data arrival rate at the ingestion layer (Kinesis in
Fig. 1) is strongly correlated (coefficient = 0.95) with the CPU load
at the analytics layer (Storm)" over a ~550-minute click-stream run,
and (Sec. 3.1) "we witnessed no correlation between the write capacity
in Kinesis and write capacity in DynamoDB".

This benchmark replays a 550-minute click-stream against the statically
provisioned flow and reports the same two correlations. Shape target:
ingestion↔analytics r >= 0.9; ingestion↔storage |r| well below the
significance bar.
"""

import pytest

from repro import LayerKind
from repro.dependency import cross_correlation, pearson_r
from repro.monitoring import stacked_panels

from benchmarks.conftest import static_fig2_run, write_report

DURATION = 550 * 60  # the paper's ~550 minute window


@pytest.fixture(scope="module")
def fig2_series():
    result = static_fig2_run(duration=DURATION, seed=7)
    dims_in = result.layer_dimensions[LayerKind.INGESTION]
    dims_an = result.layer_dimensions[LayerKind.ANALYTICS]
    dims_st = result.layer_dimensions[LayerKind.STORAGE]
    records = result.trace("AWS/Kinesis", "IncomingRecords", period=60,
                           statistic="Sum", dimensions=dims_in)
    cpu = result.trace("Custom/Storm", "CPUUtilization", period=60,
                       statistic="Average", dimensions=dims_an)
    writes = result.trace("AWS/DynamoDB", "ConsumedWriteCapacityUnits", period=60,
                          statistic="Sum", dimensions=dims_st)
    return records, cpu, writes


def test_fig2_ingestion_analytics_correlation(fig2_series, results_dir):
    records, cpu, writes = fig2_series

    r = pearson_r(records.values, cpu.values)

    r_storage = pearson_r(records.values, writes.values)
    lag_scan = cross_correlation(records.values, cpu.values, max_lag=5)
    best_lag, best_r = lag_scan.best()

    lines = [
        "E1/E8 — Fig. 2: workload dependency across layers (550 min, 1-min sampling)",
        f"  samples:                          {len(records)} minutes",
        f"  input records/min:                mean={records.mean():,.0f}  "
        f"min={records.minimum():,.0f}  max={records.maximum():,.0f}",
        f"  analytics CPU %:                  mean={cpu.mean():.1f}  "
        f"min={cpu.minimum():.1f}  max={cpu.maximum():.1f}",
        f"  r(ingestion records, storm CPU):  {r:+.3f}   (paper: +0.95)",
        f"  best lag (minutes):               {best_lag} (r={best_r:+.3f})",
        f"  r(ingestion records, ddb writes): {r_storage:+.3f}   (paper: no correlation)",
        "",
        stacked_panels(
            [records, cpu],
            titles=["Ingestion Layer (Kinesis) — input records/min",
                    "Analytics Layer (Storm) — CPU %"],
        ),
    ]
    write_report(results_dir, "E1_fig2_correlation", "\n".join(lines))

    assert len(records) == DURATION // 60
    assert r >= 0.90, f"expected strong ingestion->analytics correlation, got {r}"
    assert abs(r_storage) < 0.5, (
        f"storage writes should not track raw click volume, got r={r_storage}"
    )
    assert r > abs(r_storage) + 0.3
