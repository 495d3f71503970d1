"""Tests for the process-parallel scenario runner.

The contract under test: a parallel sweep is *indistinguishable* from
the serial one — same values, same order, byte-identical when pickled —
and per-scenario seeds depend only on the sweep seed and the scenario
name, never on position or worker identity.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.analysis import (
    RunnerError,
    SweepCase,
    derive_scenario_seed,
    run_scenarios,
    run_scenarios_dict,
)
from repro.simulation import derive_rng


def square(value):
    return value * value


def seeded_draws(seed, n):
    """A deterministic but seed-sensitive payload (numpy array + scalar)."""
    rng = derive_rng(seed, "runner-test")
    draws = rng.normal(size=n)
    return {"sum": float(draws.sum()), "draws": draws}


def explode():
    raise ValueError("scenario failure")


def slow_sentinel(path, delay):
    """Sleep, then leave a marker file (module-level: workers pickle it)."""
    import time

    time.sleep(delay)
    with open(path, "w") as handle:
        handle.write("ran")
    return path


def scenarios_for(base_seed, count=5):
    return [
        SweepCase(
            name=f"case-{i}",
            fn=seeded_draws,
            kwargs=dict(seed=derive_scenario_seed(base_seed, f"case-{i}"), n=32),
        )
        for i in range(count)
    ]


class TestSerialParallelEquivalence:
    def test_results_in_submission_order(self):
        scenarios = [SweepCase(name=f"s{i}", fn=square, kwargs={"value": i}) for i in range(6)]
        assert run_scenarios(scenarios, jobs=1) == [0, 1, 4, 9, 16, 25]
        assert run_scenarios(scenarios, jobs=3) == [0, 1, 4, 9, 16, 25]

    def test_parallel_byte_identical_to_serial(self):
        # Compare result-by-result: pickling the whole list at once also
        # encodes cross-result object sharing (memo refs for interned
        # strings and dtypes), which is an identity artifact, not a value.
        scenarios = scenarios_for(base_seed=7)
        serial = run_scenarios(scenarios, jobs=1)
        parallel = run_scenarios(scenarios, jobs=2)
        for a, b in zip(serial, parallel, strict=True):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_dict_helper_keys_by_name(self):
        scenarios = [SweepCase(name=f"s{i}", fn=square, kwargs={"value": i}) for i in range(3)]
        assert run_scenarios_dict(scenarios, jobs=2) == {"s0": 0, "s1": 1, "s2": 4}


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_scenario_seed(7, "case-a") == derive_scenario_seed(7, "case-a")

    def test_name_and_base_seed_both_matter(self):
        assert derive_scenario_seed(7, "case-a") != derive_scenario_seed(7, "case-b")
        assert derive_scenario_seed(7, "case-a") != derive_scenario_seed(8, "case-a")

    def test_position_independent(self):
        """Reordering a sweep must not reshuffle any scenario's stream."""
        full = run_scenarios_dict(scenarios_for(base_seed=3, count=4))
        reordered = run_scenarios_dict(list(reversed(scenarios_for(base_seed=3, count=4))))
        for name, payload in full.items():
            assert payload["sum"] == reordered[name]["sum"]

    def test_import_repro_loads_no_analysis_and_no_process_pool(self):
        """The run path derives its seeds in ``repro.simulation.rng``, so
        ``import repro`` loads neither the analysis layer nor the
        sweep runner's process pool."""
        import repro

        code = (
            "import sys, repro; print(sorted(m for m in ('repro.analysis', "
            "'multiprocessing', 'concurrent.futures') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(RunnerError):
            run_scenarios([], jobs=0)

    def test_rejects_duplicate_names(self):
        scenarios = [
            SweepCase(name="dup", fn=square, kwargs={"value": 1}),
            SweepCase(name="dup", fn=square, kwargs={"value": 2}),
        ]
        with pytest.raises(RunnerError):
            run_scenarios(scenarios)

    def test_empty_sweep(self):
        assert run_scenarios([]) == []
        assert run_scenarios([], jobs=4) == []

    def test_worker_exception_propagates(self):
        scenarios = [
            SweepCase(name="ok", fn=square, kwargs={"value": 2}),
            SweepCase(name="boom", fn=explode),
        ]
        with pytest.raises(ValueError, match="scenario failure"):
            run_scenarios(scenarios, jobs=2)
        with pytest.raises(ValueError, match="scenario failure"):
            run_scenarios(scenarios, jobs=1)

    def test_failure_cancels_queued_scenarios(self, tmp_path):
        """Regression: a failing scenario must fail the sweep *fast* —
        queued scenarios are cancelled, not silently run to completion
        by the executor's shutdown. With 2 workers, at most the two
        in-flight sentinels can run; the other eight must be cancelled
        before they ever start."""
        scenarios = [SweepCase(name="boom", fn=explode)] + [
            SweepCase(
                name=f"queued-{i}",
                fn=slow_sentinel,
                kwargs=dict(path=str(tmp_path / f"queued-{i}"), delay=0.2),
            )
            for i in range(10)
        ]
        with pytest.raises(ValueError, match="scenario failure"):
            run_scenarios(scenarios, jobs=2)
        ran = sorted(p.name for p in tmp_path.iterdir())
        assert len(ran) <= 2, f"queued scenarios were not cancelled: {ran}"


class TestStartMethodPin:
    """The pool's start method is pinned, never inherited from the
    platform default — ``fork`` would hand workers a copy of the
    parent's mutable module state, which is exactly the kind of
    accidental coupling the deterministic runner exists to prevent."""

    def test_start_method_is_pinned_and_never_fork(self):
        from repro.analysis.runner import START_METHOD

        assert START_METHOD in ("forkserver", "spawn")
        assert START_METHOD != "fork"

    def test_pool_context_uses_pinned_method(self):
        from repro.analysis.runner import START_METHOD, pool_context

        assert pool_context().get_start_method() == START_METHOD
