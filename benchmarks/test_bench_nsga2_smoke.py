"""NSGA-II smoke benchmark — E3 at reduced scale, for CI.

The full E3 run (population 100 x 250 generations, ~25k evaluations)
takes tens of seconds on the scalar reference path. This smoke version
runs the same constrained Eq. 3-5 problem at population 40 x 40
generations, small enough for every CI push, and checks the two
properties a perf regression would break first:

- the vectorized path still beats the scalar reference path, and
- both paths produce bit-identical Pareto fronts from the same seed
  (the determinism contract in DESIGN.md).
"""

import time

from repro.core.flow import clickstream_flow_spec
from repro.optimization import ResourceShareAnalyzer

from benchmarks.test_bench_fig4_pareto import BUDGET_PER_HOUR, paper_constraints

POPULATION = 40
GENERATIONS = 40
SEED = 0


def _analyzer():
    return ResourceShareAnalyzer(clickstream_flow_spec(), constraints=paper_constraints())


def _solve(vectorized):
    analyzer = _analyzer()
    start = time.perf_counter()
    result = analyzer.analyze(
        budget_per_hour=BUDGET_PER_HOUR,
        population_size=POPULATION,
        generations=GENERATIONS,
        seed=SEED,
        vectorized=vectorized,
    )
    return result, time.perf_counter() - start


def test_nsga2_smoke(smoke_report):
    vec_result, vec_seconds = _solve(vectorized=True)
    ref_result, ref_seconds = _solve(vectorized=False)

    # Same seed => identical fronts, identical pick, identical budget use.
    assert [s.shares for s in vec_result.solutions] == [s.shares for s in ref_result.solutions]
    assert [s.hourly_cost for s in vec_result.solutions] == [
        s.hourly_cost for s in ref_result.solutions
    ]
    assert vec_result.evaluations == ref_result.evaluations

    # Shape: the reduced run still finds a usable feasible front.
    assert 3 <= len(vec_result) <= 60
    for solution in vec_result.solutions:
        shares = {k: float(v) for k, v in solution.shares}
        for constraint in paper_constraints():
            assert constraint.satisfied(shares, slack=1e-6), constraint.describe()
        assert solution.hourly_cost <= BUDGET_PER_HOUR + 1e-9

    # Perf canary: generous bound (full E3 asks for >= 5x) so CI noise
    # does not flake, but a vectorization regression still fails here.
    speedup = ref_seconds / vec_seconds
    assert speedup >= 2.0, f"vectorized path only {speedup:.1f}x faster than scalar reference"

    report = {
        "experiment": "E3_smoke",
        "population": POPULATION,
        "generations": GENERATIONS,
        "seed": SEED,
        "vectorized_seconds": round(vec_seconds, 4),
        "scalar_reference_seconds": round(ref_seconds, 4),
        "speedup": round(speedup, 2),
        "pareto_solutions": len(vec_result),
        "fronts_identical": True,
    }
    smoke_report("BENCH_nsga2_smoke", report)
