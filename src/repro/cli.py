"""Command-line interface: the demo walk-through without the GUI.

The VLDB demonstration walked attendees through building a flow,
configuring controllers, and watching the dashboards (Sec. 4). This CLI
is the terminal version::

    python -m repro.cli demo       # build + run a managed flow, show the dashboard
    python -m repro.cli trace      # run with the flight recorder, summarise / export
    python -m repro.cli fig2       # workload dependency analysis (Fig. 2 / Eq. 2)
    python -m repro.cli pareto     # resource share analysis (Fig. 4)
    python -m repro.cli shootout   # controller comparison (Sec. 3.3)
    python -m repro.cli chaos      # fault injection + invariant audit + MTTR
    python -m repro.cli fleet      # N flows in one region under a coordinator
    python -m repro.cli scorecard  # run health digest + baseline regression gate
    python -m repro.cli scenario   # scenario catalog: list / show / run / gate

Every command prints deterministic output; run commands accept
``--seed`` (``scenario`` carries its seeds inside the specs). ``demo``,
``trace``, ``chaos``, ``shootout`` and ``fleet`` compile their flags
into specs; only ``fig2``'s uncontrolled flow is built by hand.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import (
    ChaosSchedule,
    FaultKind,
    FaultSpec,
    FlowBuilder,
    FlowerError,
    LayerKind,
    clickstream_flow_spec,
)
from repro.analysis import (
    ComparisonReport,
    SweepCase,
    run_scenarios,
    settling_time,
    slo_violation_rate,
)
from repro.analysis.scorecard import (
    SMOKE_SCENARIOS,
    FleetScorecard,
    RunScorecard,
    run_smoke_scenario,
)
from repro.chaos import recovery_times
from repro.core.config import CONTROLLER_FACTORIES
from repro.dependency import fit_linear, pearson_r
from repro.monitoring import stacked_panels
from repro.observability import TickProfiler, chain_for, to_chrome_trace
from repro.optimization import ResourceShareAnalyzer, ShareConstraint
from repro.scenarios import PatternSpec, Scenario
from repro.workload import SinusoidalRate


def positive_int(text: str) -> int:
    """argparse type for horizons and counts; argparse names the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for simulated times; argparse names the flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _ensure_writable(path: str) -> None:
    """Fail fast on an unwritable trace path — before simulating hours."""
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise SystemExit(f"cannot write trace file {path!r}: {exc}")


def _compile(args: argparse.Namespace, **fields) -> Scenario:
    """A spec from a run command's ``--duration``, ``--seed``,
    ``--reference`` and ``--fast`` plus ``fields``; a field the DSL
    rejects is reported with the flags it came from."""
    flags = {"duration": args.duration, "seed": args.seed, "reference": args.reference}
    try:
        return Scenario(**flags, exact=not getattr(args, "fast", False), **fields)
    except FlowerError as exc:
        given = " ".join(f"--{name}={value}" for name, value in flags.items())
        raise SystemExit(f"{args.command}: {exc} (given {given})")


def flow_scenario(args: argparse.Namespace) -> Scenario:
    """The spec ``demo``, ``trace`` and ``chaos`` run: a sinusoid of
    1500 ± 1200 rec/s, one period per run from its peak, into 2 shards,
    2 VMs and 300 WCU; ``chaos`` adds its fault schedule."""
    return _compile(
        args,
        name=f"cli-{args.command}",
        workload=PatternSpec("sinusoid", {
            "mean": 1500.0, "amplitude": 1200.0,
            "period": args.duration, "phase": -args.duration // 4,
        }),
        controller=args.style,
        shards=2, vms=2, write_units=300,
        chaos=_chaos_schedule(args) if args.command == "chaos" else None,
    )


def _fast_banner(exact: bool) -> None:
    """The one-line marker every --fast run prints before its output."""
    if not exact:
        print(
            "workload path: APPROXIMATE (--fast / exact=False) — "
            "statistically equivalent, not bit-comparable to exact runs"
        )


def cmd_demo(args: argparse.Namespace) -> int:
    if args.trace:
        _ensure_writable(args.trace)
    scenario = flow_scenario(args)
    _fast_banner(scenario.exact)
    manager = scenario.build_manager()
    result = manager.run(scenario.duration)
    print(result.dashboard())
    print()
    for kind in LayerKind:
        capacity = result.capacity_trace(kind)
        label = result.flow.layer(kind).resource_label
        print(f"{kind.name.lower():<10} {label:<7} "
              f"{capacity.minimum():.0f}..{capacity.maximum():.0f}")
    print(f"total cost: ${result.total_cost:.4f}")
    if args.trace:
        recorder = manager.recorder
        lines = recorder.to_jsonl(args.trace)
        print(f"trace: {lines} lines ({len(recorder.bus)} events, "
              f"{len(recorder.decisions)} decisions) -> {args.trace}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if None not in (args.from_tick, args.to_tick) and args.from_tick > args.to_tick:
        raise SystemExit(
            "trace: --from-tick must not exceed --to-tick "
            f"(given --from-tick={args.from_tick} --to-tick={args.to_tick})"
        )
    if args.out:
        _ensure_writable(args.out)
    if args.chrome:
        _ensure_writable(args.chrome)
    scenario = flow_scenario(args)
    manager = scenario.build_manager()
    recorder = manager.recorder
    if args.profile:
        recorder.profiler = manager.engine.profiler = TickProfiler()
    result = manager.run(scenario.duration)
    filtering = (
        args.layer or args.kind
        or args.from_tick is not None or args.to_tick is not None
    )
    if args.causal:
        chain = chain_for(result, args.causal)
        if chain is None:
            sample = ", ".join(recorder.bus.traces()[:6]) or "none recorded"
            raise SystemExit(
                f"unknown trace id {args.causal!r} (expected loop@time or "
                f"fault:<kind>@<start>); recorded ids start with: {sample}"
            )
        print(chain.describe(horizon=result.duration_seconds))
    elif filtering:
        events = recorder.bus.events
        matched = [
            e
            for e in events
            if (not args.layer or e.layer == args.layer)
            and (not args.kind or e.kind == args.kind
                 or e.kind.startswith(args.kind + "."))
            and (args.from_tick is None or e.time >= args.from_tick)
            and (args.to_tick is None or e.time <= args.to_tick)
        ]
        for event in matched:
            suffix = f"  <{event.trace}#{event.span}>" if event.trace else ""
            print(event.describe() + suffix)
        print(f"{len(matched)} / {len(events)} events matched")
    else:
        print(recorder.summary())
    if args.out:
        lines = recorder.to_jsonl(args.out)
        print(f"\ntrace: {lines} lines -> {args.out}")
    if args.chrome:
        document = to_chrome_trace(recorder, args.chrome)
        print(
            f"chrome trace: {len(document['traceEvents'])} trace events -> "
            f"{args.chrome} (open in Perfetto / chrome://tracing)"
        )
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    # Static run: the workload shape passes straight through to CPU.
    workload = SinusoidalRate(
        mean=500.0, amplitude=300.0, period=args.duration, phase=-args.duration // 4
    )
    manager = (
        FlowBuilder("cli-fig2", seed=args.seed)
        .ingestion(shards=1)
        .analytics(vms=1)
        .storage(write_units=300)
        .workload(workload)
        .build()
    )
    result = manager.run(args.duration)
    records = result.trace("AWS/Kinesis", "IncomingRecords", period=60, statistic="Sum",
                           dimensions=result.layer_dimensions[LayerKind.INGESTION])
    cpu = result.trace("Custom/Storm", "CPUUtilization", period=60,
                       dimensions=result.layer_dimensions[LayerKind.ANALYTICS])
    print(stacked_panels(
        [records, cpu],
        titles=["Ingestion Layer (Kinesis) — records/min", "Analytics Layer (Storm) — CPU %"],
    ))
    model = fit_linear(records.values, cpu.values)
    print()
    print(f"correlation: r = {pearson_r(records.values, cpu.values):+.3f}")
    print(f"dependency:  {model.equation('CPU', 'WriteCapacity')}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    constraints = [
        ShareConstraint.at_least(5, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.ANALYTICS, LayerKind.INGESTION),
        ShareConstraint.at_most(2, LayerKind.INGESTION, LayerKind.STORAGE),
    ]
    analyzer = ResourceShareAnalyzer(clickstream_flow_spec(), constraints=constraints)
    front = analyzer.analyze(budget_per_hour=args.budget, population_size=80,
                             generations=args.generations, seed=args.seed)
    print(f"budget ${args.budget:.2f}/h — {len(front)} Pareto-optimal plans")
    if not front.solutions:
        print("no feasible plan found: raise the budget or the generation count")
        return 1
    print(front.table())
    print(f"\npicked ({args.pick}): {front.pick(args.pick, seed=args.seed)}")
    return 0


def shootout_scenario(args: argparse.Namespace, style: str) -> Scenario:
    """One style's shootout spec: 700 rec/s plus a 2200 rec/s flash crowd
    a quarter into the run, into 1 shard, 1 VM and 200 WCU."""
    return _compile(
        args,
        name=f"shootout-{style}",
        workload=PatternSpec("sum", inner=(
            PatternSpec("constant", {"value": 700.0}),
            PatternSpec("flash_crowd", {
                "peak": 2200.0, "at": args.duration // 4,
                "rise_seconds": 120, "decay_seconds": 1500,
            }),
        )),
        controller=style,
        shards=1, vms=1, write_units=200,
    )


def _shootout_row(spec: dict) -> list[float | None]:
    """One style's row: ingestion SLO violations, settling time after the
    crowd arrives, cost (module-level: sweep workers pickle it)."""
    scenario = Scenario.from_dict(spec)
    result = scenario.build_manager().run(scenario.duration)
    util = result.utilization_trace(LayerKind.INGESTION)
    band = scenario.slo.utilization_band
    crowd_at = scenario.workload.inner[1].params["at"]
    settle = settling_time(util, 0.0, band, start=crowd_at, hold_seconds=300)
    return [
        100.0 * slo_violation_rate(util, "<=", band),
        float(settle) if settle is not None else None,
        result.total_cost,
    ]


def cmd_shootout(args: argparse.Namespace) -> int:
    _fast_banner(not args.fast)
    report = ComparisonReport(
        "controller comparison under a flash crowd", ["violations_%", "settle_s", "cost_$"]
    )
    styles = sorted(CONTROLLER_FACTORIES)
    cases = [
        SweepCase(
            name=style, fn=_shootout_row,
            kwargs={"spec": shootout_scenario(args, style).to_dict()},
        )
        for style in styles
    ]
    for style, row in zip(styles, run_scenarios(cases, jobs=args.jobs)):
        report.add_row(style, row)
    print(report.render())
    print(f"\nbest on SLO violations: {report.best_row('violations_%')}")
    return 0


def _parse_fault(text: str) -> FaultSpec:
    """``KIND:START[:DURATION[:INTENSITY]]`` -> :class:`FaultSpec`."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise SystemExit(
            f"bad --fault {text!r}: expected KIND:START[:DURATION[:INTENSITY]]"
        )
    try:
        kind = FaultKind(parts[0])
    except ValueError:
        known = ", ".join(sorted(k.value for k in FaultKind))
        raise SystemExit(f"unknown fault kind {parts[0]!r}; one of: {known}")
    try:
        start = int(parts[1])
        duration = int(parts[2]) if len(parts) > 2 else 0
        intensity = float(parts[3]) if len(parts) > 3 else 0.0
        return FaultSpec(kind=kind, start=start, duration=duration, intensity=intensity)
    except (ValueError, FlowerError) as exc:
        raise SystemExit(f"bad --fault {text!r}: {exc}")


def _chaos_schedule(args: argparse.Namespace) -> ChaosSchedule:
    """The ``--schedule`` file, else the ``--fault`` list, else one fault
    per flow layer, spaced across the run."""
    if args.schedule:
        try:
            with open(args.schedule) as handle:
                return ChaosSchedule.from_json(handle.read())
        except (OSError, ValueError, FlowerError) as exc:
            raise SystemExit(f"cannot load schedule {args.schedule!r}: {exc}")
    if args.fault:
        return ChaosSchedule(
            faults=tuple(_parse_fault(text) for text in args.fault), seed=args.seed
        )
    duration = args.duration
    return ChaosSchedule(faults=(
        FaultSpec(kind=FaultKind.SHARD_BROWNOUT, start=duration // 6,
                  duration=duration // 12, intensity=0.5),
        FaultSpec(kind=FaultKind.WORKER_CRASH, start=duration // 2, intensity=1),
        FaultSpec(kind=FaultKind.THROTTLE_STORM, start=2 * duration // 3,
                  duration=duration // 12, intensity=0.6),
    ), seed=args.seed, name="cli-default")


def cmd_chaos(args: argparse.Namespace) -> int:
    scenario = flow_scenario(args)
    result = scenario.build_manager().run(scenario.duration)

    schedule = scenario.chaos
    print(f"fault timeline ({schedule.name}, seed {schedule.seed}):")
    for event in result.chaos_events:
        detail = f"  {event.detail}" if event.detail else ""
        print(f"  t={event.time:>6}  {event.phase:<6} {event.fault:<15} "
              f"[{event.layer}]{detail}")

    print("\nrecovery (utilization back into band and holding):")
    for sample in recovery_times(result):
        status = (
            f"{sample.recovery_seconds:.0f}s" if sample.recovered else "NOT RECOVERED"
        )
        print(f"  {sample.fault:<15} [{sample.layer}] injected t={sample.injected_at}: {status}")

    print()
    print(result.invariants.describe())
    print(f"total cost: ${result.total_cost:.4f}")
    return 0 if result.invariants.ok else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run N flows against one region and show the arbitration story."""
    from repro.cloud.region import RegionLimits
    from repro.cloud.storm import StormConfig
    from repro.core.config import LayerControlConfig, default_adaptive_controller
    from repro.core.fleet import FleetFlowSpec, FleetScenarioSpec, sweep_fleet_scenarios

    # The DSL's bound on a scenario's reference: a utilisation percentage.
    if not 0.0 < args.reference <= 100.0:
        raise SystemExit(f"fleet: --reference must be > 0 and <= 100, got {args.reference}")

    def controls():
        return {
            kind: LayerControlConfig(
                controller=default_adaptive_controller(kind, reference=args.reference),
                period=60,
            )
            for kind in LayerKind
        }

    flows = [
        FleetFlowSpec(
            name=f"flow{i}",
            workload=SinusoidalRate(
                mean=1500.0 + 400.0 * i,
                amplitude=1200.0,
                period=args.duration,
                phase=args.duration // 4,
            ),
            controls=controls(),
            storm=StormConfig(records_per_vm_per_second=800),
        )
        for i in range(args.flows)
    ]
    limits = RegionLimits(
        max_instances=args.max_instances,
        max_total_shards=args.max_shards,
        max_total_write_units=args.max_write_units,
        contention_threshold=0.7,
        contention_slope=0.3,
    )
    spec = FleetScenarioSpec(
        name="cli-fleet",
        flows=flows,
        limits=limits,
        duration=args.duration,
        coordinate_period=None if args.no_coordinator else args.coordinate_period,
        exact=not args.fast,
    )
    _fast_banner(spec.exact)
    if args.sweep > 1:
        # Process-parallel policy sweep: the same region squeeze as
        # independent scenario cases (name-derived seeds), fanned over
        # the runner's pinned-context pool.
        cases = [dataclasses.replace(spec, name=f"fleet-case{i}") for i in range(args.sweep)]
        cards = sweep_fleet_scenarios(cases, base_seed=args.seed, jobs=args.jobs)
        for card in cards.values():
            print(card.summary())
            print()
        print(f"{len(cards)} fleet cases swept with jobs={args.jobs}")
        return 0
    result = spec.build(args.seed).run(spec.duration)
    print(result.summary())
    if result.coordinator is not None and result.coordinator.records:
        print("\nanalytics cap trajectory (coordinator grants per flow):")
        for spec_name in sorted(result.flows):
            trajectory = result.coordinator.bound_trajectory(
                spec_name, LayerKind.ANALYTICS
            )
            if trajectory:
                caps = " ".join(str(cap) for _t, cap in trajectory[:16])
                more = " ..." if len(trajectory) > 16 else ""
                print(f"  {spec_name}: {caps}{more}")
    denials = result.denials_by_flow()
    if denials:
        print("\nregion admission denials (absorbed by each flow's retry stack):")
        for flow_id, counts in sorted(denials.items()):
            detail = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"  {flow_id}: {detail}")
    bad = [
        flow_id
        for flow_id, flow_result in result.flows.items()
        if flow_result.invariants is not None and not flow_result.invariants.ok
    ]
    if bad:
        print(f"\nINVARIANT VIOLATIONS in: {', '.join(sorted(bad))}")
        return 1
    return 0


def _gate(
    gate: str,
    runs: Sequence[tuple[Path, Path | None, Callable[[], Any], Callable[[Path], Any]]],
    *,
    check: bool,
    regenerate: str,
) -> int:
    """Produce, print and (with ``check``) gate each fresh card or
    matrix against its committed baseline; exit status 0 when green.

    Each run is ``(baseline, out, produce, load)``: the committed
    baseline path, the ``--out`` path or None, the producer of the
    fresh card or matrix, and the baseline's loader. The baseline is
    read before ``--out`` is written, and an ``--out`` that is the
    baseline itself is refused before anything runs: the gate would
    overwrite the committed baseline and then compare the fresh result
    against itself.
    """
    if check:
        for baseline, out, _, _ in runs:
            if out is not None and out.resolve() == baseline.resolve():
                raise SystemExit(
                    f"--out {out} resolves to the baseline {baseline.resolve()}; "
                    "the gate would overwrite the committed baseline with the very "
                    "result it is checking and compare it against itself. Write "
                    "artifacts elsewhere (e.g. under artifacts/), or regenerate the "
                    "baseline deliberately with --out and no --check."
                )
    failures: list[str] = []
    for baseline, out, produce, load in runs:
        fresh = produce()
        print(fresh.summary())
        if check:
            if not baseline.exists():
                failures.append(f"{fresh.name}: no committed baseline at {baseline}")
                print(f"gate: MISSING BASELINE ({baseline})")
            else:
                try:
                    drifts = fresh.compare(load(baseline))
                except FlowerError as exc:
                    raise SystemExit(f"{gate} gate: {exc}")
                if drifts:
                    failures.append(f"{fresh.name}: {len(drifts)} drifted fields")
                    print(f"gate: DRIFT vs {baseline}:")
                    for drift in drifts:
                        print(f"  {drift}")
                else:
                    print(f"gate: ok (matches {baseline})")
        if out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(fresh.to_json())
            print(f"written: {out}")
        print()
    if failures:
        print(f"{gate} gate FAILED: " + "; ".join(failures))
        print(f"if the change is intentional, regenerate {regenerate}")
        return 1
    return 0


def cmd_scorecard(args: argparse.Namespace) -> int:
    runs = []
    for name in args.scenario or SMOKE_SCENARIOS:
        filename = f"SCORECARD_{name}_smoke.json"
        runs.append((
            Path(args.baseline_dir) / filename,
            Path(args.out) / filename if args.out else None,
            partial(run_smoke_scenario, name, seed=args.seed, duration=args.duration),
            FleetScorecard.from_json_file if name == "fleet" else RunScorecard.from_json_file,
        ))
    return _gate(
        "scorecard", runs, check=args.check,
        regenerate="baselines with: python -m repro.cli scorecard "
                   f"--out {args.baseline_dir}",
    )


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import CATALOG_NAMES, CatalogMatrix, catalog, run_catalog

    scenarios = catalog(args.variant)
    if args.action == "list":
        print(f"scenario catalog [{args.variant}] — {len(scenarios)} scenarios")
        for name, scenario in scenarios.items():
            faults = len(scenario.chaos.faults) if scenario.chaos else 0
            budget = (
                f"${scenario.budget_usd_per_hour:.2f}/h"
                if scenario.budget_usd_per_hour is not None else "none"
            )
            print(f"  {name:<28} {scenario.controller:<9} "
                  f"{scenario.duration:>7}s  faults={faults}  budget={budget}")
            print(f"    {scenario.description}")
        return 0

    if args.action == "show" and args.name is None:
        raise SystemExit("scenario show: a scenario NAME is required")
    names = [args.name] if args.action == "show" else args.name
    for name in names:
        if name not in scenarios:
            raise SystemExit(
                f"unknown catalog scenario {name!r}; one of: " + ", ".join(CATALOG_NAMES)
            )
    if args.action == "show":
        print(scenarios[args.name].to_json(), end="")
        return 0

    # run
    if names:
        scenarios = {name: scenarios[name] for name in names}

    def load(path: Path) -> CatalogMatrix:
        baseline = CatalogMatrix.from_json_file(path)
        # A partial run gates against the baseline restricted to the
        # same names, so unrun scenarios are not drift.
        return baseline.restrict(names) if names else baseline

    _fast_banner(not args.fast)
    run = partial(run_catalog, scenarios, variant=args.variant, jobs=args.jobs, fast=args.fast)
    return _gate(
        "catalog",
        [(Path(args.baseline), Path(args.out) if args.out else None, run, load)],
        check=args.check,
        regenerate="the baseline with: python -m repro.cli scenario run "
                   f"--out {args.baseline}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Flower: a data analytics flow elasticity manager (VLDB'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a managed flow and show the dashboard")
    demo.add_argument("--duration", type=positive_int, default=2 * 3600, help="simulated seconds")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--style", choices=sorted(CONTROLLER_FACTORIES), default="adaptive")
    demo.add_argument("--reference", type=float, default=60.0,
                      help="desired utilisation (the wizard's reference value)")
    demo.add_argument("--fast", action="store_true",
                      help="approximate (exact=False) workload path: statistically "
                           "equivalent, several times faster, not bit-comparable")
    demo.add_argument("--trace", default=None, metavar="PATH",
                      help="record a flight-recorder trace and write it as JSONL")
    demo.set_defaults(func=cmd_demo)

    trace = sub.add_parser(
        "trace", help="run a managed flow with the flight recorder and summarise it"
    )
    trace.add_argument("--duration", type=positive_int, default=2 * 3600, help="simulated seconds")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--style", choices=sorted(CONTROLLER_FACTORIES), default="adaptive")
    trace.add_argument("--reference", type=float, default=60.0)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="also export the trace as JSONL")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also export a Chrome trace-event JSON file "
                            "(opens in Perfetto / chrome://tracing)")
    trace.add_argument("--profile", action="store_true",
                       help="time each component and task per tick")
    trace.add_argument("--layer", default=None,
                       help="print only events from this layer/loop")
    trace.add_argument("--kind", default=None,
                       help="print only events of this kind (prefix match on dots)")
    trace.add_argument("--from-tick", type=non_negative_int, default=None, metavar="T",
                       help="print only events at simulated second >= T")
    trace.add_argument("--to-tick", type=non_negative_int, default=None, metavar="T",
                       help="print only events at simulated second <= T")
    trace.add_argument("--causal", default=None, metavar="TRACE_ID",
                       help="print one reconstructed causal chain "
                            "(loop@time or fault:<kind>@<start>)")
    trace.set_defaults(func=cmd_trace)

    fig2 = sub.add_parser("fig2", help="workload dependency analysis on a static run")
    fig2.add_argument("--duration", type=positive_int, default=3 * 3600)
    fig2.add_argument("--seed", type=int, default=7)
    fig2.set_defaults(func=cmd_fig2)

    pareto = sub.add_parser("pareto", help="resource share analysis (Fig. 4)")
    pareto.add_argument("--budget", type=float, default=1.5, help="dollars per hour")
    pareto.add_argument("--generations", type=positive_int, default=150)
    pareto.add_argument("--seed", type=int, default=0)
    pareto.add_argument("--pick", default="balanced",
                        help="random | balanced | cheapest | max:<layer>")
    pareto.set_defaults(func=cmd_pareto)

    shootout = sub.add_parser("shootout", help="compare the four controller styles")
    shootout.add_argument("--duration", type=positive_int, default=2 * 3600)
    shootout.add_argument("--seed", type=int, default=5)
    shootout.add_argument("--reference", type=float, default=60.0)
    shootout.add_argument("--fast", action="store_true",
                          help="approximate (exact=False) workload path")
    shootout.add_argument("--jobs", type=positive_int, default=1,
                          help="worker processes for the style sweep "
                               "(results are identical to a serial run)")
    shootout.set_defaults(func=cmd_shootout)

    chaos = sub.add_parser(
        "chaos", help="run a managed flow under injected faults and audit recovery"
    )
    chaos.add_argument("--duration", type=positive_int, default=2 * 3600, help="simulated seconds")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--style", choices=sorted(CONTROLLER_FACTORIES), default="adaptive")
    chaos.add_argument("--reference", type=float, default=60.0)
    chaos.add_argument("--fault", action="append", metavar="KIND:START[:DURATION[:INTENSITY]]",
                       help="add one fault (repeatable); kinds: "
                            + ", ".join(sorted(k.value for k in FaultKind)))
    chaos.add_argument("--schedule", default=None, metavar="PATH",
                       help="load a ChaosSchedule JSON file (overrides --fault); "
                            "default scenario: one fault per layer")
    chaos.set_defaults(func=cmd_chaos)

    fleet = sub.add_parser(
        "fleet",
        help="run several flows against one region's shared account limits",
    )
    fleet.add_argument("--flows", type=positive_int, default=3, help="number of flows")
    fleet.add_argument("--duration", type=positive_int, default=2 * 3600, help="simulated seconds")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--reference", type=float, default=60.0)
    fleet.add_argument("--max-instances", type=positive_int, default=10,
                       help="account-wide EC2 instance limit")
    fleet.add_argument("--max-shards", type=positive_int, default=12,
                       help="account-wide Kinesis shard limit")
    fleet.add_argument("--max-write-units", type=positive_int, default=2400,
                       help="account-wide DynamoDB write-unit limit")
    fleet.add_argument("--coordinate-period", type=positive_int, default=300,
                       help="seconds between coordinator arbitration passes")
    fleet.add_argument("--fast", action="store_true",
                       help="approximate (exact=False) workload path for every flow")
    fleet.add_argument("--sweep", type=positive_int, default=1, metavar="N",
                       help="run the fleet as N independent scenario cases "
                            "(name-derived seeds) instead of one run")
    fleet.add_argument("--jobs", type=positive_int, default=1,
                       help="worker processes for --sweep (byte-identical to jobs=1)")
    fleet.add_argument("--no-coordinator", action="store_true",
                       help="disable arbitration; region admission alone "
                            "polices the limits")
    fleet.set_defaults(func=cmd_fleet)

    scorecard = sub.add_parser(
        "scorecard",
        help="run the smoke scenarios, print their scorecards, and "
             "optionally gate against committed baselines",
    )
    scorecard.add_argument("--scenario", action="append",
                           choices=list(SMOKE_SCENARIOS),
                           help="run only this scenario (repeatable; default: all)")
    scorecard.add_argument("--seed", type=int, default=7)
    scorecard.add_argument("--duration", type=positive_int, default=2 * 3600,
                           help="simulated seconds per scenario")
    scorecard.add_argument("--out", default=None, metavar="DIR",
                           help="write SCORECARD_<scenario>_smoke.json files here")
    scorecard.add_argument("--check", action="store_true",
                           help="fail (exit 1) if any deterministic field drifts "
                                "from the committed baseline")
    scorecard.add_argument("--baseline-dir", default="results", metavar="DIR",
                           help="where committed baselines live (default: results)")
    scorecard.set_defaults(func=cmd_scorecard)

    scenario = sub.add_parser(
        "scenario",
        help="list, inspect, or run the declarative scenario catalog "
             "and gate its scorecard matrix",
    )
    variant = argparse.ArgumentParser(add_help=False)
    variant.add_argument("--variant", choices=("smoke", "full"), default="smoke",
                         help="horizon variant (smoke: 2 h, the CI gate; "
                              "full: a day or more)")
    actions = scenario.add_subparsers(dest="action", required=True)
    actions.add_parser("list", parents=[variant], help="list the catalog")
    show = actions.add_parser("show", parents=[variant], help="print one spec as JSON")
    show.add_argument("name", nargs="?", metavar="NAME", help="catalog scenario name")
    run = actions.add_parser("run", parents=[variant], help="run scenarios and score them")
    run.add_argument("name", nargs="*", metavar="NAME",
                     help="catalog scenario name(s); default: all")
    run.add_argument("--jobs", type=positive_int, default=1,
                     help="worker processes for the run "
                          "(matrix is byte-identical at any value)")
    run.add_argument("--fast", action="store_true",
                     help="approximate (exact=False) workload path for every "
                          "scenario; the matrix then refuses to gate against "
                          "the exact committed baseline")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="write the scorecard matrix JSON here")
    run.add_argument("--check", action="store_true",
                     help="fail (exit 1) if any scenario's card drifts from "
                          "the committed baseline matrix")
    run.add_argument("--baseline", default="results/SCORECARD_catalog.json",
                     metavar="PATH",
                     help="committed baseline matrix "
                          "(default: results/SCORECARD_catalog.json)")
    scenario.set_defaults(func=cmd_scenario)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlowerError as exc:
        # Input only the library can judge (a budget, a spec field):
        # one line naming the command, not a traceback.
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
