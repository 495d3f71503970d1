"""``benchmarks/_stretch_split.py``: the CI stretch-split canary.

The split files each scalar stretch's ticks under the state the stretch
started in, and asks ``_Span.closed_form_run`` at every scalar stretch
that starts with empty backlogs whether a closed form would have taken
over; a yes raises. Running the canary here keeps that cross-check
against ``run_span``'s dispatch in tier 1.
"""

from __future__ import annotations

import json

from benchmarks import _stretch_split as split

from repro.core.manager import _FlowPipeline


def test_fleet_split_files_every_scalar_tick(monkeypatch, capsys):
    for name in split.STRETCHES.values():
        # Re-setting each method records it, so teardown removes the
        # counters the split installs over it.
        monkeypatch.setattr(_FlowPipeline, name, getattr(_FlowPipeline, name))
    assert split.main(["fleet-16", "--seconds", "1800", "--require", "saturated"]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    why = record["why"]
    assert list(why) == list(split.SCALAR_REGIMES)
    assert sum(why.values()) == record["stretches"]["scalar"]["ticks"]
    # The closed_form_run cross-check ran on each short-run regime.
    for regime in ("span-remainder", "drained-short-viable-run", "backlogged-short-saturated-run"):
        assert why[regime] > 0, regime
