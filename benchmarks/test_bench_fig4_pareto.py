"""E3 — Fig. 4: Pareto-optimal resource shares.

Paper (Sec. 3.2): with the click-stream flow and the assumptive
dependency constraints ``5*r_A >= r_I``, ``2*r_A <= r_I`` and
``2*r_I <= r_S``, "the algorithm finds six Pareto optimal solutions,
each representing the resource shares of Kinesis, Storm, and DynamoDB
simultaneously".

This benchmark builds exactly that constrained Eq. 3-5 problem and
searches it with NSGA-II. Shape targets: a small Pareto set of mutually
non-dominated, fully feasible allocations with the budget binding.
"""

from repro.core.flow import LayerKind, clickstream_flow_spec
from repro.optimization import ResourceShareAnalyzer, ShareConstraint

from benchmarks.conftest import write_report

BUDGET_PER_HOUR = 1.50  # dollars; sized so a handful of plans are optimal


def paper_constraints():
    return [
        ShareConstraint.at_least(5, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.INGESTION, LayerKind.STORAGE),
    ]


def test_fig4_pareto_front(results_dir):
    analyzer = ResourceShareAnalyzer(clickstream_flow_spec(), constraints=paper_constraints())

    result = analyzer.analyze(
        budget_per_hour=BUDGET_PER_HOUR, population_size=100, generations=250, seed=0
    )

    lines = [
        "E3 — Fig. 4: Pareto optimal resource shares",
        f"  budget: ${BUDGET_PER_HOUR:.2f}/hour; constraints: "
        + "; ".join(c.describe() for c in paper_constraints()),
        f"  NSGA-II evaluations: {result.evaluations}",
        f"  Pareto solutions found: {len(result)}   (paper found 6)",
        "",
        result.table(),
        "",
        f"  picked (random, as the paper suggests): {result.pick('random', seed=1)}",
        f"  picked (balanced): {result.pick('balanced')}",
    ]
    write_report(results_dir, "E3_fig4_pareto", "\n".join(lines))

    # Shape: a small front of feasible, mutually non-dominated plans.
    assert 3 <= len(result) <= 60
    for solution in result.solutions:
        shares = {k: float(v) for k, v in solution.shares}
        for constraint in paper_constraints():
            assert constraint.satisfied(shares, slack=1e-6), constraint.describe()
        assert solution.hourly_cost <= BUDGET_PER_HOUR + 1e-9
    # Budget binds: the most expensive plan spends nearly all of it.
    assert max(s.hourly_cost for s in result.solutions) >= 0.9 * BUDGET_PER_HOUR
    # Non-dominance across the de-duplicated integer front.
    for a in result.solutions:
        for b in result.solutions:
            if a is b:
                continue
            assert not (
                b.ingestion >= a.ingestion
                and b.analytics >= a.analytics
                and b.storage >= a.storage
                and (b.ingestion, b.analytics, b.storage)
                != (a.ingestion, a.analytics, a.storage)
            )
