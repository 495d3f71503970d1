"""One benchmark repetition, run in a fresh interpreter.

``run.py`` starts this module once per repetition::

    python -m bench.rep --workload NAME --seed N [--trace] [--reference] [--setup-only]

It prints one JSON object. In order, the repetition

1. imports ``repro`` and builds the workload (``setup_s`` runs from
   this module's first statement to the end of that build);
2. runs a 10-simulated-minute warm-up on that instance and discards it
   (with ``--reference``, also on a per-tick reference instance, and
   compares the two: the span ≡ tick contract, checked on this seed);
3. builds a fresh instance and times its full run;
4. after timing stops, digests every operation's output and reads the
   process's peak resident set size.

The host-speed probe (``probe.py``) samples through steps 1 and 3, and
both times are reported at reference host speed as well as in wall
seconds. With ``--trace`` step 3 runs instrumented (see ``tracer.py``)
and the output adds the per-layer metrics. With ``--setup-only`` the
child stops after step 1 and reports its set-up time alone: ``run.py``
starts such children to sample set-up time more often than it runs
reps.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from bench.oracle import catalog_digest, flow_digest  # noqa: E402
from bench.probe import Probe  # noqa: E402
from bench.tracer import Tracer, instrument_fleet, instrument_flow, layer_metrics  # noqa: E402
from bench.workloads import WARMUP_SECONDS, WORKLOADS  # noqa: E402


def measure(name: str, seed: int, horizon: int | None = None, *, trace: bool = False,
            reference: bool = False, started: float | None = None, tamper=None) -> dict:
    """Run one repetition in this process and return its raw record.

    ``setup_s`` and ``run_s`` are at reference host speed;
    ``setup_wall_s`` and ``run_wall_s`` are the wall seconds they come
    from, less the probe's own time (``probe.py``).

    ``horizon`` overrides the workload's simulated horizon (the
    self-tests run every workload for ten minutes). ``reference`` adds
    the per-tick reference comparison of the warm-up. ``tamper`` is
    called with the finished run's output before it is digested, so a
    test can plant a perturbation the oracle must catch.
    """
    started = perf_counter() if started is None else started
    workload = WORKLOADS[name]
    horizon = workload.horizon if horizon is None else horizon
    warm_seconds = min(WARMUP_SECONDS, horizon)
    warm, setup = _set_up(workload, seed, horizon, started)

    warm_output, warmup_s = _timed_run(workload.kind, warm, warm_seconds)
    prefix = None
    if reference:
        # The same warm-up on the per-tick reference loop must produce
        # the same digests, operation by operation.
        spans = _operations(workload.kind, warm_output)
        ticks = _operations(workload.kind, _reference_run(workload, seed, horizon, warm_seconds))
        prefix = {op: spans[op]["digest"] == ticks[op]["digest"] for op in spans}
    del warm, warm_output

    t = perf_counter()
    built = workload.build(seed, horizon)
    build_s = perf_counter() - t

    trace_out = None
    probe = Probe(workload.exact)
    probe.start()
    try:
        if trace:
            output, wall_s, trace_out = _traced_run(workload, built, horizon)
        else:
            output, wall_s = _timed_run(workload.kind, built, horizon)
    finally:
        probe.stop()
    run = probe.summary(wall_s)

    if tamper is not None:
        tamper(output)
    ops = _operations(workload.kind, output)
    if prefix is not None:
        for op, out in ops.items():
            out["matches_reference"] = prefix[op]
    return {
        "workload": name,
        "seed": seed,
        "horizon": horizon,
        "traced": trace,
        "setup_s": setup["ref_s"],
        "setup_wall_s": setup["net_s"],
        "warmup_s": warmup_s,
        "build_s": build_s,
        "run_s": run["ref_s"],
        "run_wall_s": run["net_s"],
        "probe": {"setup": setup, "run": run},
        "flow_ticks": workload.flows * horizon,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "trace": trace_out,
    }


def setup_only(name: str, seed: int, started: float) -> dict:
    """Step 1 alone: ``setup_s`` and ``setup_wall_s`` from ``started`` to
    the built warm-up instance."""
    workload = WORKLOADS[name]
    setup = _set_up(workload, seed, workload.horizon, started)[1]
    return {"setup_s": setup["ref_s"], "setup_wall_s": setup["net_s"], "probe": setup}


def _set_up(workload, seed: int, horizon: int, started: float):
    """Step 1 under the probe: ``(warm-up instance, probe summary)``.

    The probe starts once this module is imported; its speed reading
    scales the whole interval from ``started``.
    """
    probe = Probe(workload.exact)
    probe.start()
    try:
        warm = _build_warmup(workload, seed, horizon)
    finally:
        probe.stop()
    return warm, probe.summary(perf_counter() - started)


def _build_warmup(workload, seed: int, horizon: int):
    """Import ``repro`` and build the instance the warm-up runs on."""
    import repro  # noqa: F401  (the import is part of set-up)

    if workload.kind == "catalog":
        return workload.build(seed, min(WARMUP_SECONDS, horizon))
    return workload.build(seed, horizon)


def _timed_run(kind: str, built, horizon: int):
    """Run a built workload; returns ``({operation: result}, wall s)``.

    A catalog runs each scenario as ``run_catalog(..., jobs=1)`` would.
    """
    started = perf_counter()
    if kind == "catalog":
        from repro.scenarios import CatalogEntry, run_scenario

        output = {s.name: CatalogEntry.from_card(s, run_scenario(s)) for s in built}
    else:
        result = built.run(horizon)
        output = dict(result.flows) if kind == "fleet" else {"flow": result}
    return output, perf_counter() - started


def _reference_run(workload, seed: int, horizon: int, seconds: int) -> dict:
    """The warm-up's spec run on the per-tick reference loop."""
    if workload.kind == "catalog":
        output = {}
        for scenario in workload.build(seed, seconds):
            manager = scenario.build_manager()
            manager.engine.span_execution = False
            output[scenario.name] = _score(scenario, manager.run(scenario.duration))
        return output
    built = workload.build(seed, horizon)
    built.engine.span_execution = False
    return _timed_run(workload.kind, built, seconds)[0]


def _score(scenario, result):
    """A scenario's catalog entry, as ``run_scenario`` scores it."""
    from repro.analysis.scorecard import RunScorecard
    from repro.scenarios import CatalogEntry

    card = RunScorecard.from_result(
        scenario.name, result, slo_band=scenario.slo.utilization_band, seed=scenario.seed,
    ).without_wall_clock()
    return CatalogEntry.from_card(scenario, card)


def _operations(kind: str, output: dict) -> dict:
    """Digest and invariant verdict per operation."""
    ops = {}
    for op, result in output.items():
        if kind == "catalog":
            ops[op] = {
                "digest": catalog_digest(result),
                "violations": 0 if result.card.invariants_ok else 1,
            }
        else:
            ops[op] = {
                "digest": flow_digest(result),
                "violations": result.invariants.total_violations if result.invariants else 0,
            }
    return ops


def _traced_run(workload, built, horizon: int):
    """The instrumented run: ``(output, wall s, {metrics, check})``."""
    tracer = Tracer()
    if workload.kind == "catalog":
        return _traced_catalog(built, tracer, workload.flows * horizon)
    if workload.kind == "fleet":
        profiler = instrument_fleet(built, tracer)
        managers = list(built.managers.values())
    else:
        profiler = instrument_flow(built, tracer)
        managers = [built]
    output, wall_s = _timed_run(workload.kind, built, horizon)
    metrics, check = layer_metrics(
        tracer, [profiler], wall_s=wall_s, flow_ticks=workload.flows * horizon,
        managers=managers, coordinator=getattr(built, "coordinator", None),
        region=getattr(built, "region", None),
    )
    return output, wall_s, {"metrics": metrics, "check": check}


def _traced_catalog(scenarios, tracer: Tracer, flow_ticks: int):
    """Compile, instrument, run and score each scenario the way
    ``run_scenario`` does, timing compile and scoring as layers."""
    output, profilers, managers = {}, [], []
    started = perf_counter()
    for scenario in scenarios:
        manager = tracer.call("scenarios.compile", scenario.build_manager)
        profilers.append(instrument_flow(manager, tracer))
        managers.append(manager)
        result = manager.run(scenario.duration)
        output[scenario.name] = tracer.call("analysis.scorecard", _score, scenario, result)
    wall_s = perf_counter() - started
    metrics, check = layer_metrics(
        tracer, profilers, wall_s=wall_s, flow_ticks=flow_ticks, managers=managers
    )
    return output, wall_s, {"metrics": metrics, "check": check}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            record = setup_only(args.workload, args.seed, _STARTED)
        else:
            record = measure(args.workload, args.seed, trace=args.trace,
                             reference=args.reference, started=_STARTED)
    except Exception:  # noqa: BLE001 - run.py counts it as failed operations
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
