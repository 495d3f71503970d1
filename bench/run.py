"""The benchmark entry point: five workloads, end-to-end metrics, a per-layer trace.

Run from the repository root::

    PYTHONPATH=src python -m bench.run [--workload NAME] [--seed N] [--seconds S]
                                       [--trace [0|1]] [--out PATH]
                                       [--record-digests PATH] [--expect PATH]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0

Each repetition runs in its own fresh ``python`` child (``rep.py``), one
at a time, with the BLAS thread pools pinned to one thread. A workload
gets at least three repetitions, and more while one more is expected to
end within ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``). After each repetition one more child only sets
up, so set-up time gets two samples per repetition. Every end-to-end
metric is the median over its samples; the record keeps every raw value.

Times are taken at reference host speed (``probe.py``), which the other
tenants of a shared host do not move: ``flow_ticks_per_s`` and
``setup_s``. Their wall-clock readings are printed and recorded beside
them (``flow_ticks_per_wall_s``, ``setup_wall_s``), with the probe's
``host_speed``.

Correctness: every operation (one flow's run in one repetition, or one
catalog scenario) fails if it raised, if its invariant checker saw a
violation, if its output digest differs from the recorded one for this
seed (``expected.json``, or ``--expect``), or if repetitions disagree.
The first repetition also runs its warm-up on the per-tick reference
loop, which must give the same digests as the span-batched warm-up.
With ``--trace`` one more, instrumented repetition reports the
per-layer metrics, and its digests must equal the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace`` the per-layer metrics, that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not __package__:
    # Run as a script (``python3 bench/run.py``): make the package importable.
    sys.path.insert(0, str(ROOT))

from bench import oracle  # noqa: E402
from bench.tracer import LAYER_UNITS, tail_percentiles  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: Unit of every end-to-end metric.
E2E_UNITS = {
    "flow_ticks_per_s": "flow-ticks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ops_ratio": "ratio",
    "flow_ticks_per_wall_s": "flow-ticks/s",
    "setup_wall_s": "s",
    "host_speed": "ratio",
}

#: Thread-pool pins every child runs under.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Fewest timed repetitions per workload.
MIN_REPS = 3
#: Set-up-only children started after each repetition.
SETUPS_PER_REP = 1
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


def spawn(name: str, seed: int, *flags: str) -> dict:
    """Run one repetition in a fresh interpreter; returns its record.

    ``flags`` are ``rep.py`` options (``--trace``, ``--reference``,
    ``--setup-only``). A child that crashes, times out or prints no
    record yields ``{"error": ...}``.
    """
    cmd = [sys.executable, "-m", "bench.rep", "--workload", name, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}, no record: {proc.stderr.strip()[-2000:]}"}
    return record


def evaluate(reps: list[dict], flows: int, expected: dict | None) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations over every repetition.

    ``reps`` may include the traced repetition: its digests must equal
    the untraced ones like any other repetition's. Returns
    ``(attempted, failed, problems)``.
    """
    reference = expected
    if reference is None:
        first = next((r for r in reps if "error" not in r), None)
        reference = {op: out["digest"] for op, out in first["ops"].items()} if first else {}
    attempted = failed = 0
    problems: list[str] = []
    for i, rep in enumerate(reps):
        if "error" in rep:
            attempted += flows
            failed += flows
            problems.append(f"rep {i}: {rep['error'].strip().splitlines()[-1]}")
            continue
        for op, out in rep["ops"].items():
            attempted += 1
            why = []
            if out["violations"]:
                why.append(f"{out['violations']} invariant violations")
            if out["digest"] != reference.get(op):
                why.append("digest differs from " + ("the recorded one" if expected else "rep 0"))
            if out.get("matches_reference") is False:
                why.append("the warm-up differs from the per-tick reference loop")
            if why:
                failed += 1
                problems.append(f"rep {i} {op}: {', '.join(why)}")
    return attempted, failed, problems


def run_workload(name: str, seed: int, *, seconds: float = 0.0, trace: bool = False,
                 expected: dict | None = None) -> dict:
    """Measure one workload: timed repetitions, then the traced one."""
    workload = WORKLOADS[name]
    reps: list[dict] = []
    setups: list[dict] = []
    started = perf_counter()
    while True:
        reps.append(spawn(name, seed, *([] if reps else ["--reference"])))
        setups += [spawn(name, seed, "--setup-only") for _ in range(SETUPS_PER_REP)]
        # Stop unless one more repetition, at the mean cost so far, ends in time.
        elapsed = perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    traced = spawn(name, seed, "--trace") if trace else None

    want = oracle.expected_for(expected or {}, name, seed, workload.horizon)
    checked = reps + ([traced] if traced is not None else [])
    attempted, failed, problems = evaluate(checked, workload.flows, want)
    good = [r for r in reps if "error" not in r]
    set_ups = [r for r in good + setups if "error" not in r]
    for child in setups:
        if "error" in child:
            # A set-up child that fails counts as one failed operation.
            attempted += 1
            failed += 1
            problems.append(f"set-up child: {child['error'].strip().splitlines()[-1]}")
    result = {
        "workload": name,
        "seed": seed,
        "horizon": workload.horizon,
        "flows": workload.flows,
        "digests_recorded": want is not None,
        "reps": reps,
        "setups": setups,
        "setup_samples": len(set_ups),
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {"failed_ops_ratio": failed / attempted},
    }
    if good:
        flow_ticks = good[0]["flow_ticks"]
        result["run_s"] = statistics.median(r["run_s"] for r in good)
        result["metrics"].update({
            "flow_ticks_per_s": flow_ticks / result["run_s"],
            "setup_s": statistics.median(r["setup_s"] for r in set_ups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "flow_ticks_per_wall_s": flow_ticks / statistics.median(r["run_wall_s"] for r in good),
            "setup_wall_s": statistics.median(r["setup_wall_s"] for r in set_ups),
            "host_speed": statistics.median(r["probe"]["run"]["speed"] for r in good),
        })
    if traced is not None and "error" not in traced and good:
        layers = dict(traced["trace"]["metrics"])
        layers["trace.overhead_ratio"] = traced["run_s"] / result["run_s"] - 1.0
        result["layers"] = layers
        result["trace_check"] = traced["trace"]["check"]
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Print one workload's metrics, each with its unit."""
    good = [r for r in result["reps"] if "error" not in r]
    print(
        f"{result['workload']}  seed {result['seed']}, horizon {result['horizon']} s, "
        f"{result['flows']} flow(s), {len(result['reps'])} reps, "
        f"{result['setup_samples']} set-up samples"
    )
    metrics = result["metrics"]
    for name, unit in E2E_UNITS.items():
        if name in metrics:
            print(f"  {name:<28} {_fmt(metrics[name]):>14} {unit}")
    print(f"  operations: {result['failed']} of {result['attempted']} failed; digests "
          + ("checked against the recorded ones" if result["digests_recorded"]
             else "checked for agreement between reps (none recorded for this seed)"))
    for problem in result["problems"]:
        print(f"    {problem}")
    if good and not tail_percentiles([r["run_s"] for r in good]):
        print(f"  tail percentiles: none reported; n={len(good)} reps leaves fewer "
              "than 10 samples beyond p90")
    layers = result.get("layers")
    if layers is not None:
        check = result["trace_check"]
        print(f"  per-layer (one traced rep; self-time accounting "
              f"{'ok' if check['ok'] else 'FAILED'}: "
              f"self vs covered {check['self_vs_covered']:.2%}, "
              f"components vs profiler {check['components_vs_profiler']:.2%}, "
              f"engine {check['engine_share']:.2%} of wall)")
        for name, unit in LAYER_UNITS.items():
            if name in layers:
                print(f"    {name:<32} {_fmt(layers[name]):>14} {unit}")


def load_spec() -> dict:
    """``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def final_line(results: list[dict], trace: bool) -> dict:
    """The machine-readable result: the declared metrics, with units."""
    declared = [m["name"] for m in load_spec()["per_layer" if trace else "end_to_end"]]
    units = LAYER_UNITS if trace else E2E_UNITS
    metrics = {}
    for result in results:
        values = result.get("layers", {}) if trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name in declared:
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": units[name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    traces_ok = not trace or all(r.get("trace_check", {}).get("ok") for r in results)
    return {
        "correct": failed == 0 and traces_ok and len(metrics) == len(declared) * len(results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_record(results: list[dict], args) -> dict:
    """The ``--out`` record: machine, versions, pins, seed, every raw rep."""
    import numpy

    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "schema": "bench-run/1",
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {r["workload"]: r for r in results},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7, help="reseeds every workload")
    parser.add_argument("--seconds", type=float,
                        help="add repetitions while one more is expected to end within "
                             "this many seconds (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a traced repetition and report per-layer metrics")
    parser.add_argument("--out", help="write the full run record (JSON) here")
    parser.add_argument("--record-digests", metavar="PATH",
                        help="store this run's output digests into PATH")
    parser.add_argument("--expect", metavar="PATH",
                        help="check digests against PATH instead of bench/expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").exists():
        print(f"bench: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2

    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    expected = oracle.load_expected(args.expect or oracle.EXPECTED_PATH)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(
            name, args.seed, seconds=args.seconds, trace=bool(args.trace), expected=expected
        )
        report(result)
        results.append(result)

    if args.record_digests:
        recorded = oracle.load_expected(args.record_digests)
        for result in results:
            if result["failed"]:
                print(f"bench: not recording {result['workload']}: operations failed",
                      file=sys.stderr)
                continue
            first = next(r for r in result["reps"] if "error" not in r)
            oracle.record(recorded, result["workload"], result["seed"], result["horizon"],
                          {op: out["digest"] for op, out in first["ops"].items()})
        oracle.save(recorded, args.record_digests)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(run_record(results, args), handle, indent=1)
            handle.write("\n")

    line = final_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the running child before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
