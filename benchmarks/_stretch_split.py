"""Stretch split: which ``run_span`` stretch executed each flow-tick.

``_FlowPipeline.run_span`` runs a span as a sequence of stretches: the
closed-form vector stretch (every backlog empty), the closed-form
saturated stretch (Storm at capacity, the stream backlogged), the
closed-form throttled stretch (the producer re-offering two record caps
of backlog each tick, Storm drained or saturated) and the bit-exact
scalar loop everywhere else. Every closed form runs through
``_FlowPipeline._closed_form``, its kind read from the plan's
``saturated`` and ``producer``. This script runs one pinned workload
from ``bench.workloads`` (imported read-only) with counters wrapped
around ``_closed_form`` and ``_scalar_stretch``, and prints the calls
and ticks each kind ran (the throttled ticks also by Storm's regime),
then the scalar ticks split by why no closed form took them
(:data:`SCALAR_REGIMES`). A counter around ``run_span`` adds the
flow-spans, the one-tick spans and those of them whose tick a VM boot
completes at.

Usage, from the repository root::

    PYTHONPATH=src python -m benchmarks._stretch_split fleet-16 [--seed 7]
        [--seconds S] [--require KIND ...] [--max-share KIND=RATIO ...]

``--seconds`` overrides the workload's pinned horizon. ``--require
KIND`` exits 1 when stretch ``KIND`` ran no ticks, so a change that
silently disables a stretch fails loudly. ``--max-share KIND=RATIO``
exits 1 when stretch ``KIND`` ran more than ``RATIO`` of the ticks, so
a change that sends ticks back to the scalar loop fails too. The last
line of standard output is the split as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bench.workloads import WORKLOADS

from repro.core.manager import _CLOSED_FORM_MIN_TICKS, _FlowPipeline

#: Stretch kinds, in the order the split prints them.
STRETCHES = ("vector", "saturated", "throttled", "scalar")

#: The ``_FlowPipeline`` methods the counters wrap.
WRAPPED = ("_closed_form", "_scalar_stretch", "run_span")


#: Why a ``_scalar_stretch`` call ran instead of a closed form, judged
#: from the state when the call starts; the first regime that matches
#: takes all of the call's ticks. The ``producer-*`` regimes start with
#: a producer backlog, the last four with none.
SCALAR_REGIMES = (
    "producer-partial-retry",  # backlog under two record caps
    "producer-at-max-backlog",  # backlog at MAX_BACKLOG
    "write-backlog",
    "producer-span-remainder",  # fewer than _CLOSED_FORM_MIN_TICKS ticks left
    "producer-short-run",
    "span-remainder",
    "pending-above-poll-limit",
    "drained-short-viable-run",
    "backlogged-short-saturated-run",
)


def stretch_kind(saturated: bool, producer) -> str:
    """The closed form a plan runs: throttled with a producer stage,
    else saturated or vector by Storm's regime."""
    return "throttled" if producer is not None else "saturated" if saturated else "vector"


def scalar_regime(pipeline: _FlowPipeline, span, start: int) -> str:
    """The :data:`SCALAR_REGIMES` entry for a scalar stretch that starts
    at index ``start`` of ``span``.

    With the write backlog empty, ``run_span`` runs a scalar stretch
    only where :meth:`_Span.closed_form_run` finds no plan; this asks it
    again, whatever the producer backlog, and raises if it finds one, so
    the split cannot drift from the dispatch it explains.
    """
    backlog = pipeline._producer_backlog_records
    backlog_bytes = pipeline._producer_backlog_bytes
    buffer = pipeline.stream._buffer_records
    pending = pipeline.cluster._pending_records
    if not pipeline._write_backlog:
        plan = span.closed_form_run(start, buffer, pending, backlog, backlog_bytes)
        if plan is not None:
            stop, saturated, producer = plan
            raise AssertionError(
                f"scalar stretch at span index {start} where a {stop - start}-tick "
                f"{stretch_kind(saturated, producer)} stretch runs"
            )
    producer = bool(backlog or backlog_bytes)
    if producer and backlog < 2 * span.record_cap:
        return "producer-partial-retry"
    if producer and backlog >= span.max_backlog:
        return "producer-at-max-backlog"
    if pipeline._write_backlog:
        return "write-backlog"
    if producer:
        if span.count - start < _CLOSED_FORM_MIN_TICKS:
            return "producer-span-remainder"
        return "producer-short-run"
    if span.count - start < _CLOSED_FORM_MIN_TICKS:
        return "span-remainder"
    if pending > span.poll_limit:
        return "pending-above-poll-limit"
    if not (buffer or pending):
        return "drained-short-viable-run"
    return "backlogged-short-saturated-run"


def count_stretches() -> tuple[dict[str, dict[str, int]], dict[str, int], dict[str, int]]:
    """Wrap :data:`WRAPPED` with call and tick counters per stretch kind.

    Returns the live counters (the throttled stretch's also split into
    ``drained`` and ``saturated`` ticks by Storm's regime), the scalar
    ticks per :data:`SCALAR_REGIMES` entry and the span counts
    (``flow_spans``, ``one_tick``, ``one_tick_at_boot``: one-tick spans
    whose tick a VM boot completes at); the wrappers stay installed for
    the rest of the process.
    """
    counts = {kind: {"calls": 0, "ticks": 0} for kind in STRETCHES}
    counts["throttled"].update(drained=0, saturated=0)
    why = dict.fromkeys(SCALAR_REGIMES, 0)
    spans = {"flow_spans": 0, "one_tick": 0, "one_tick_at_boot": 0}
    closed_form = _FlowPipeline._closed_form
    scalar = _FlowPipeline._scalar_stretch
    run_span = _FlowPipeline.run_span

    def counted_closed_form(self, span, start, stop, saturated, producer):
        reached, columns = closed_form(self, span, start, stop, saturated, producer)
        count = counts[stretch_kind(saturated, producer)]
        count["calls"] += 1
        count["ticks"] += reached - start
        if producer is not None:
            count["saturated" if saturated else "drained"] += reached - start
        return reached, columns

    def counted_scalar(self, span, start):
        regime = scalar_regime(self, span, start)
        reached, plan, columns = scalar(self, span, start)
        counts["scalar"]["calls"] += 1
        counts["scalar"]["ticks"] += reached - start
        why[regime] += reached - start
        return reached, plan, columns

    def counted_run_span(self, clock, span_end):
        spans["flow_spans"] += 1
        first_tick = clock.now + clock.tick_seconds
        if span_end == first_tick:
            spans["one_tick"] += 1
            boot = self.cluster.fleet.next_capacity_event(clock.now)
            if boot is not None and boot <= first_tick:
                spans["one_tick_at_boot"] += 1
        run_span(self, clock, span_end)

    _FlowPipeline._closed_form = counted_closed_form
    _FlowPipeline._scalar_stretch = counted_scalar
    _FlowPipeline.run_span = counted_run_span
    return counts, why, spans


def share_bound(text: str) -> tuple[str, float]:
    """Parse a ``--max-share`` value, ``KIND=RATIO``."""
    kind, _, ratio = text.partition("=")
    if kind not in STRETCHES:
        raise argparse.ArgumentTypeError(f"unknown stretch {kind!r} (choose from {STRETCHES})")
    try:
        bound = float(ratio)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not KIND=RATIO") from None
    if not 0.0 <= bound <= 1.0:
        raise argparse.ArgumentTypeError(f"ratio {bound} is outside [0, 1]")
    return kind, bound


def run_workload(name: str, seed: int, seconds: int | None) -> int:
    """Run workload ``name`` once; returns the flow-ticks it executed."""
    workload = WORKLOADS[name]
    horizon = workload.horizon if seconds is None else seconds
    built = workload.build(seed, horizon)
    if workload.kind == "catalog":
        from repro.scenarios import run_scenario

        for scenario in built:
            run_scenario(scenario)
        return sum(scenario.duration for scenario in built)
    built.run(horizon)
    return workload.flows * horizon


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None,
                        help="simulated horizon (default: the workload's pinned one)")
    parser.add_argument("--require", action="append", default=[], choices=sorted(STRETCHES),
                        help="exit 1 if this stretch ran no ticks (repeatable)")
    parser.add_argument("--max-share", action="append", default=[], type=share_bound,
                        metavar="KIND=RATIO",
                        help="exit 1 if this stretch ran more than RATIO of the ticks (repeatable)")
    args = parser.parse_args(argv)

    counts, why, spans = count_stretches()
    started = time.perf_counter()
    flow_ticks = run_workload(args.workload, args.seed, args.seconds)
    wall_s = time.perf_counter() - started

    ran = sum(c["ticks"] for c in counts.values())
    print(f"{args.workload} seed={args.seed}: {flow_ticks} flow-ticks in {wall_s:.2f} s")
    print(f"{'stretch':<10} {'calls':>8} {'ticks':>10} {'share':>7}")
    for kind, c in counts.items():
        share = c["ticks"] / ran if ran else 0.0
        print(f"{kind:<10} {c['calls']:>8} {c['ticks']:>10} {share:>7.3f}")
    throttled = counts["throttled"]
    print(f"throttled, by Storm regime: drained {throttled['drained']}, "
          f"saturated {throttled['saturated']}")
    print(f"spans: {spans['flow_spans']} flow-spans, {spans['one_tick']} of one tick "
          f"({spans['one_tick_at_boot']} at a VM boot)")
    scalar = counts["scalar"]["ticks"]
    print(f"{'scalar, by entry state':<32} {'ticks':>10} {'share':>7}")
    for regime, ticks in why.items():
        print(f"{regime:<32} {ticks:>10} {ticks / scalar if scalar else 0.0:>7.3f}")
    missing = [kind for kind in args.require if counts[kind]["ticks"] == 0]
    over = [
        f"{kind} {counts[kind]['ticks'] / ran:.3f} > {bound}"
        for kind, bound in args.max_share
        if ran and counts[kind]["ticks"] / ran > bound
    ]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "flow_ticks": flow_ticks,
                      "wall_s": round(wall_s, 3), "stretches": counts, "why": why,
                      "spans": spans}))
    if missing:
        print(f"FAIL: stretch(es) {', '.join(missing)} ran 0 ticks", file=sys.stderr)
    if over:
        print(f"FAIL: tick share above its bound: {', '.join(over)}", file=sys.stderr)
    return 1 if missing or over else 0


if __name__ == "__main__":
    sys.exit(main())
