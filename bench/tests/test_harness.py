"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import time

import pytest

from bench import oracle
from bench.probe import REFERENCE_S, Probe
from bench.rep import _operations, _timed_run, measure, setup_only
from bench.run import E2E_UNITS, ROOT, evaluate
from bench.tracer import LAYER_UNITS, Tracer, fidelity, percentile, tail_percentiles
from bench.workloads import WORKLOADS

SHORT = 600


def _digests(record: dict) -> dict:
    return {op: out["digest"] for op, out in record["ops"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_clean_and_tracing_does_not_perturb(name):
    plain = measure(name, 7, SHORT, reference=True)
    traced = measure(name, 7, SHORT, trace=True)
    workload = WORKLOADS[name]
    assert len(plain["ops"]) == workload.flows
    assert all(out["violations"] == 0 for out in plain["ops"].values())
    assert all(out["matches_reference"] for out in plain["ops"].values())
    assert _digests(traced) == _digests(plain)
    assert evaluate([plain, traced], workload.flows, None)[:2] == (2 * workload.flows, 0)
    assert traced["trace"]["check"]["ok"], traced["trace"]["check"]
    metrics = traced["trace"]["metrics"]
    assert metrics["workload.draw_s"] > 0
    assert metrics["core.datapath_s"] > 0
    assert metrics["control.steps"] > 0


def test_setup_only_child_times_the_same_set_up():
    started = time.perf_counter()
    record = setup_only("fleet-16", 7, started)
    assert 0 < record["setup_wall_s"] <= time.perf_counter() - started
    assert record["setup_s"] == pytest.approx(record["setup_wall_s"] * record["probe"]["speed"])


def test_planted_perturbation_fails_operations():
    reference = measure("flow-exact", 7, SHORT)

    def tamper(output):
        meter = output["flow"].cost_meters["analytics"]
        meter._unit_seconds += 1.0

    tampered = measure("flow-exact", 7, SHORT, tamper=tamper)
    attempted, failed, problems = evaluate([reference, tampered], 1, None)
    assert failed / attempted > 0
    assert "digest differs" in problems[0]
    recorded = _digests(reference)
    attempted, failed, _ = evaluate([tampered], 1, recorded)
    assert (attempted, failed) == (1, 1)


def test_crashed_repetition_fails_all_its_operations():
    attempted, failed, problems = evaluate([{"error": "Traceback\nValueError: boom"}], 16, None)
    assert (attempted, failed) == (16, 16)
    assert problems == ["rep 0: ValueError: boom"]


def test_reference_mismatch_fails_the_operation():
    rep = {"ops": {"flow": {"digest": "d", "violations": 0, "matches_reference": False}}}
    attempted, failed, problems = evaluate([rep], 1, None)
    assert (attempted, failed) == (1, 1)
    assert "per-tick reference" in problems[0]


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_partition_nested_calls():
    tracer = Tracer()

    class Layer:
        def inner(self):
            _spin(0.02)

        def outer(self):
            _spin(0.01)
            self.inner()

    layer = Layer()
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "outer", "outer")
    started = time.perf_counter()
    for _ in range(3):
        layer.outer()
    _spin(0.01)
    wall = time.perf_counter() - started

    assert tracer.self_s["inner"] == pytest.approx(0.06, rel=0.25)
    assert tracer.self_s["outer"] == pytest.approx(0.03, rel=0.25)
    assert tracer.calls == {"inner": 3, "outer": 3}
    claimed = sum(tracer.self_s.values())
    check = fidelity(tracer, wall_s=wall, claimed_s=claimed, component_s=0.0)
    assert check["ok"]
    assert check["self_vs_covered"] < 1e-9
    assert 0 < check["engine_share"] < 0.5

    # Counting the inner layer twice must trip the check.
    double = fidelity(tracer, wall_s=wall, claimed_s=claimed + tracer.self_s["inner"],
                      component_s=0.0)
    assert not double["ok"]


@pytest.mark.parametrize("exact", [False, True])
def test_probe_samples_during_a_run_and_scales_it_to_reference_speed(exact):
    probe = Probe(exact)
    probe.start()
    started = time.perf_counter()
    _spin(0.2)
    wall = time.perf_counter() - started
    probe.stop()
    assert len(probe.samples) >= 3
    summary = probe.summary(wall)
    assert summary["net_s"] == pytest.approx(wall - sum(probe.samples))
    assert summary["ref_s"] == pytest.approx(summary["net_s"] * summary["speed"])

    # A host running the kernel at half the reference speed halves the time.
    ref = REFERENCE_S[exact]
    probe.samples = [2 * ref, 2 * ref]
    assert probe.speed() == pytest.approx(0.5)
    assert probe.summary(1.0)["ref_s"] == pytest.approx((1.0 - 4 * ref) * 0.5)
    # The mean is harmonic: work between samples scales with speed.
    probe.samples = [ref, 3 * ref]
    assert probe.speed() == pytest.approx((1 + 1 / 3) / 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probe_kernel_follows_the_workload_path(name):
    workload = WORKLOADS[name]
    built = workload.build(7, SHORT)
    parts = built if workload.kind == "catalog" else [built]
    assert all(part.exact is workload.exact for part in parts)


def test_probe_does_not_perturb_the_run():
    workload = WORKLOADS["flow-congested"]
    output, _ = _timed_run(workload.kind, workload.build(7, SHORT), SHORT)
    unprobed = {op: out["digest"] for op, out in _operations(workload.kind, output).items()}
    assert _digests(measure("flow-congested", 7, SHORT)) == unprobed


def test_percentile_refuses_unsupported_tails():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert percentile(list(range(3)), 50) == 1.0
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert tail_percentiles(list(range(3))) == {}
    assert set(tail_percentiles(list(range(500)))) == {"p90"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"]:
        assert E2E_UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert LAYER_UNITS[metric["name"]] == metric["unit"]
    expected = oracle.load_expected()
    for name, workload in WORKLOADS.items():
        digests = oracle.expected_for(expected, name, 7, workload.horizon)
        assert digests is not None and len(digests) == workload.flows


def test_catalog_digests_match_the_committed_scorecard_matrix():
    from repro.scenarios import CatalogMatrix

    committed = CatalogMatrix.from_json_file(ROOT / "results" / "SCORECARD_catalog.json")
    recorded = oracle.expected_for(
        oracle.load_expected(), "catalog-smoke", 7, WORKLOADS["catalog-smoke"].horizon
    )
    assert recorded == {
        name: oracle.catalog_digest(entry) for name, entry in committed.entries.items()
    }
