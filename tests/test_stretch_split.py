"""``benchmarks/_stretch_split.py``: the CI stretch-split canaries.

The split files each scalar stretch's ticks under the state the stretch
started in, and asks ``_Span.closed_form_run`` at every scalar stretch
that starts with an empty write backlog whether a closed form would
have taken over; a plan raises. Running the two CI canaries here
(fleet-16 and flow-congested) keeps that cross-check against
``run_span``'s dispatch in tier 1, and the flow-congested canary also
holds its flow-spans to no one-tick span at a VM boot.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import _stretch_split as split

from repro.core.manager import _FlowPipeline


@pytest.mark.parametrize(
    ("argv", "reached"),
    [
        # The closed-form cross-check runs on each short-run regime,
        # with and without a producer backlog.
        pytest.param(
            ["fleet-16", "--seconds", "1800", "--require", "saturated",
             "--require", "vector", "--require", "throttled"],
            ("span-remainder", "drained-short-viable-run", "backlogged-short-saturated-run"),
            id="fleet-16",
        ),
        pytest.param(
            ["flow-congested", "--seconds", "10800", "--require", "saturated",
             "--require", "vector", "--require", "throttled"],
            ("producer-partial-retry", "producer-span-remainder", "producer-short-run"),
            id="flow-congested",
        ),
    ],
)
def test_split_files_every_scalar_tick(monkeypatch, capsys, argv, reached):
    for name in split.WRAPPED:
        # Re-setting each method records it, so teardown removes the
        # counters the split installs over it.
        monkeypatch.setattr(_FlowPipeline, name, getattr(_FlowPipeline, name))
    assert split.main(argv) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    why = record["why"]
    assert list(why) == list(split.SCALAR_REGIMES)
    assert sum(why.values()) == record["stretches"]["scalar"]["ticks"]
    for regime in reached:
        assert why[regime] > 0, regime
    spans = record["spans"]
    assert 0 < spans["one_tick"] < spans["flow_spans"]
    if argv[0] == "flow-congested":
        # Without a topology a boot is hoisted into a span: at seed 7
        # the first three hours run two one-tick spans, neither at a
        # boot (eight, five of them at a boot, when each boot ran alone).
        assert spans["one_tick_at_boot"] == 0


@pytest.mark.parametrize(
    ("bound", "code"),
    [
        # flow-fast's first hour at seed 7: scalar 0.039, vector 0.955.
        pytest.param("scalar=0.1", 0, id="scalar-under"),
        pytest.param("vector=0.9", 1, id="vector-over"),
    ],
)
def test_max_share_fails_a_stretch_above_its_bound(monkeypatch, capsys, bound, code):
    for name in split.WRAPPED:
        monkeypatch.setattr(_FlowPipeline, name, getattr(_FlowPipeline, name))
    argv = ["flow-fast", "--seconds", "3600", "--require", "vector", "--max-share", bound]
    assert split.main(argv) == code
    err = capsys.readouterr().err
    assert ("tick share above its bound" in err) == bool(code)
