"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, flow_scenario, main
from repro.scenarios import Scenario, run_scenario

#: Bad values for numeric flags, each with the flag or spec field its
#: one-line rejection must name.
BAD_FLAGS = [
    (["fleet", "--flows", "0"], "--flows"),
    (["fleet", "--max-instances", "0"], "--max-instances"),
    (["fleet", "--coordinate-period", "0"], "--coordinate-period"),
    (["fleet", "--sweep", "0"], "--sweep"),
    (["demo", "--duration", "0"], "--duration"),
    (["fig2", "--duration", "0"], "--duration"),
    (["scorecard", "--duration", "0"], "--duration"),
    (["shootout", "--jobs", "0"], "--jobs"),
    (["scenario", "run", "step-surge-worker-crash", "--jobs", "0"], "--jobs"),
    (["pareto", "--generations", "0"], "--generations"),
    (["pareto", "--budget", "-1"], "budget"),
    (["demo", "--seed", "-1"], "--seed=-1"),
    (["demo", "--reference", "150"], "--reference=150"),
    (["trace", "--reference", "0"], "--reference=0"),
    (["fig2", "--seed", "-1"], "seed"),
    (["pareto", "--seed", "-1"], "seed"),
    (["fleet", "--seed", "-1"], "seed"),
    (["fleet", "--reference", "150"], "--reference"),
    (["fleet", "--reference", "0"], "--reference"),
    (["trace", "--duration", "60", "--from-tick", "50", "--to-tick", "10"],
     "--from-tick=50 --to-tick=10"),
    (["trace", "--from-tick", "-5"], "--from-tick"),
    (["trace", "--to-tick", "-1"], "--to-tick"),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.duration == 7200
        assert args.style == "adaptive"

    def test_unknown_style_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--style", "pid"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.out is None
        assert args.profile is False

    def test_scenario_run_takes_options_before_names(self):
        args = build_parser().parse_args(["scenario", "run", "--jobs", "1", "seasonal-drift"])
        assert args.name == ["seasonal-drift"]
        assert args.jobs == 1


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv, names", BAD_FLAGS, ids=[" ".join(argv) for argv, _ in BAD_FLAGS]
    )
    def test_rejected_in_one_line_naming_the_flag(self, argv, names, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        code = info.value.code
        # argparse prints usage and exits 2; main() exits with the message.
        message = code if isinstance(code, str) else capsys.readouterr().err.splitlines()[-1]
        assert code != 0
        assert names in message
        assert "\n" not in message


class TestCommandsRunTheirSpec:
    """``demo`` and ``chaos`` run the spec the CLI compiles, and nothing else."""

    @pytest.mark.parametrize("command", ["demo", "chaos"])
    def test_printed_cost_is_the_specs(self, command, capsys):
        argv = [command, "--duration", "1200", "--seed", "3"]
        spec = flow_scenario(build_parser().parse_args(argv))
        assert Scenario.from_json(spec.to_json()) == spec
        assert main(argv) == 0
        printed = capsys.readouterr().out.split("total cost: $")[1].split()[0]
        assert printed == f"{run_scenario(spec).total_cost:.4f}"

    def test_demo_fast_compiles_an_approximate_spec(self, capsys):
        argv = ["demo", "--duration", "1200", "--seed", "3", "--fast"]
        assert flow_scenario(build_parser().parse_args(argv)).exact is False
        assert main(argv) == 0
        assert "APPROXIMATE" in capsys.readouterr().out


class TestCommands:
    def test_demo_prints_dashboard_and_cost(self, capsys):
        assert main(["demo", "--duration", "1800", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "ingestion.records" in out
        assert "total cost: $" in out

    def test_demo_trace_writes_jsonl(self, capsys, tmp_path):
        from repro.observability import read_jsonl

        path = tmp_path / "flow.jsonl"
        assert main(["demo", "--duration", "1800", "--seed", "1",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"-> {path}" in out
        data = read_jsonl(path)
        assert data["decisions"], "trace should contain control decisions"
        loops = {d.loop for d in data["decisions"] if d.acted}
        assert {"ingestion", "storage"} <= loops

    def test_trace_summarises_and_exports(self, capsys, tmp_path):
        from repro.observability import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--duration", "1800", "--seed", "1",
                     "--profile", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder:" in out
        assert "tick profile:" in out
        assert read_jsonl(path)["profile"]["ticks"] == 1800

    def test_trace_filters_events(self, capsys):
        assert main(["trace", "--duration", "1200", "--seed", "1",
                     "--layer", "storage", "--kind", "capacity"]) == 0
        out = capsys.readouterr().out
        assert "events matched" in out
        # kind filtering is prefix-aware: capacity matches
        # capacity.update and capacity.applied, nothing else.
        assert "capacity.update" in out
        assert "throttle" not in out

    def test_trace_causal_prints_chain(self, capsys):
        assert main(["trace", "--duration", "1200", "--seed", "1",
                     "--causal", "ingestion@60"]) == 0
        out = capsys.readouterr().out
        assert "ingestion@60" in out

    def test_trace_causal_unknown_id_exits(self, capsys):
        with pytest.raises(SystemExit, match="unknown trace id"):
            main(["trace", "--duration", "1200", "--seed", "1",
                  "--causal", "no-such@999"])

    def test_trace_chrome_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "chrome.json"
        assert main(["trace", "--duration", "1200", "--seed", "1",
                     "--chrome", str(path)]) == 0
        assert "open in Perfetto" in capsys.readouterr().out
        assert json.loads(path.read_text())["traceEvents"]

    def test_scorecard_writes_cards(self, capsys, tmp_path):
        assert main(["scorecard", "--scenario", "steady",
                     "--duration", "900", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scorecard steady" in out
        assert (tmp_path / "SCORECARD_steady_smoke.json").exists()

    def test_scorecard_check_refuses_out_into_baseline_dir(self, tmp_path):
        # Writing fresh cards into the baseline dir while gating would
        # overwrite the baselines and compare each card against itself
        # — the gate would always pass. Refused up front.
        with pytest.raises(SystemExit, match="baseline"):
            main(["scorecard", "--scenario", "steady", "--duration", "900",
                  "--check", "--out", str(tmp_path),
                  "--baseline-dir", str(tmp_path)])

    def test_scorecard_check_does_not_touch_baselines(self, capsys, tmp_path):
        # The gate reads the committed baseline before --out writes; a
        # drifting run must leave the baseline file byte-identical.
        baselines = tmp_path / "baselines"
        fresh = tmp_path / "artifacts"
        assert main(["scorecard", "--scenario", "steady", "--duration", "900",
                     "--seed", "3", "--out", str(baselines)]) == 0
        capsys.readouterr()
        baseline_file = baselines / "SCORECARD_steady_smoke.json"
        committed = baseline_file.read_text()
        assert main(["scorecard", "--scenario", "steady", "--duration", "900",
                     "--seed", "4", "--check", "--out", str(fresh),
                     "--baseline-dir", str(baselines)]) == 1
        assert "DRIFT" in capsys.readouterr().out
        assert baseline_file.read_text() == committed
        assert (fresh / "SCORECARD_steady_smoke.json").exists()

    def test_scorecard_check_fails_without_baseline(self, capsys, tmp_path):
        assert main(["scorecard", "--scenario", "steady",
                     "--duration", "900", "--check",
                     "--baseline-dir", str(tmp_path / "empty")]) == 1
        out = capsys.readouterr().out
        assert "MISSING BASELINE" in out
        assert "scorecard gate FAILED" in out

    def test_scorecard_check_reports_drift(self, capsys, tmp_path):
        # Baseline from a different seed: every deterministic field
        # drifts, the gate fails and names the fields.
        assert main(["scorecard", "--scenario", "steady", "--duration", "900",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["scorecard", "--scenario", "steady", "--duration", "900",
                     "--seed", "4", "--check",
                     "--baseline-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "regenerate baselines" in out

    def test_scenario_list_prints_catalog(self, capsys):
        from repro.scenarios import CATALOG_NAMES

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG_NAMES:
            assert name in out

    def test_scenario_show_emits_loadable_json(self, capsys):
        from repro.scenarios import Scenario, catalog_scenario

        assert main(["scenario", "show", "seasonal-drift"]) == 0
        out = capsys.readouterr().out
        assert Scenario.from_json(out) == catalog_scenario("seasonal-drift")

    def test_scenario_show_requires_a_name(self):
        with pytest.raises(SystemExit, match="NAME is required"):
            main(["scenario", "show"])

    def test_scenario_show_unknown_name_exits(self):
        with pytest.raises(SystemExit, match="unknown catalog scenario 'nope'; one of:"):
            main(["scenario", "show", "nope"])

    def test_scenario_show_rejects_extra_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "show", "seasonal-drift", "weekend-retail"])
        assert "unrecognized arguments: weekend-retail" in capsys.readouterr().err

    def test_scenario_run_unknown_name_exits(self):
        with pytest.raises(SystemExit, match="unknown catalog scenario"):
            main(["scenario", "run", "no-such-scenario"])

    def test_scenario_run_writes_matrix_identically_at_any_jobs(
            self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--out", str(serial)]) == 0
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--jobs", "2", "--out", str(parallel)]) == 0
        out = capsys.readouterr().out
        assert "step-surge-worker-crash" in out
        assert serial.read_text() == parallel.read_text()

    def test_scenario_check_refuses_out_into_baseline(self, tmp_path):
        # Mirrors the scorecard gate: writing the fresh matrix over the
        # baseline while gating would compare it against itself.
        baseline = tmp_path / "SCORECARD_catalog.json"
        with pytest.raises(SystemExit, match="overwrite the committed baseline"):
            main(["scenario", "run", "--check",
                  "--out", str(baseline), "--baseline", str(baseline)])

    def test_scenario_check_fails_without_baseline(self, capsys, tmp_path):
        assert main(["scenario", "run", "step-surge-worker-crash", "--check",
                     "--baseline", str(tmp_path / "missing.json")]) == 1
        out = capsys.readouterr().out
        assert "MISSING BASELINE" in out
        assert "catalog gate FAILED" in out

    def test_scenario_check_reports_drift_and_keeps_baseline(
            self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "artifacts" / "matrix.json"
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--out", str(baseline)]) == 0
        capsys.readouterr()
        # Corrupt one deterministic field; the gate must name it, fail,
        # and leave the committed baseline untouched while the fresh
        # matrix lands in artifacts/.
        data = json.loads(baseline.read_text())
        data["scenarios"]["step-surge-worker-crash"]["card"]["total_cost"] *= 2
        baseline.write_text(json.dumps(data))
        committed = baseline.read_text()
        assert main(["scenario", "run", "step-surge-worker-crash", "--check",
                     "--out", str(fresh), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "total_cost" in out
        assert "regenerate the baseline" in out
        assert baseline.read_text() == committed
        assert fresh.exists()

    def test_scenario_check_passes_against_committed_baseline(self, capsys):
        # The real CI gate at test scale: one scenario against the
        # committed matrix must match byte-for-byte.
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--check"]) == 0
        assert "gate: ok" in capsys.readouterr().out

    def test_scenario_fast_refuses_exact_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(["scenario", "run", "step-surge-worker-crash",
                     "--out", str(baseline)]) == 0
        with pytest.raises(SystemExit, match="catalog gate"):
            main(["scenario", "run", "step-surge-worker-crash", "--fast",
                  "--check", "--baseline", str(baseline)])

    def test_chaos_prints_fault_timeline(self, capsys):
        assert main(["chaos", "--duration", "1200"]) == 0
        out = capsys.readouterr().out
        assert "fault timeline (cli-default, seed 7):" in out
        for fault in ("shard-brownout", "worker-crash", "throttle-storm"):
            assert fault in out

    def test_chaos_rejects_fault_past_the_horizon(self):
        with pytest.raises(SystemExit, match=r"worker-crash@99999 .*--duration=300"):
            main(["chaos", "--fault", "worker-crash:99999:0:1", "--duration", "300"])

    def test_fleet_runs_flows_in_one_region(self, capsys):
        assert main(["fleet", "--flows", "2", "--duration", "900"]) == 0
        out = capsys.readouterr().out
        assert "flow0" in out and "flow1" in out

    def test_fleet_sweep_prints_one_card_per_case(self, capsys):
        assert main(["fleet", "--flows", "2", "--duration", "900", "--sweep", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("fleet scorecard fleet-case") == 2
        assert "2 fleet cases swept with jobs=1" in out

    def test_fig2_prints_panels_and_model(self, capsys):
        assert main(["fig2", "--duration", "3600", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ingestion Layer (Kinesis)" in out
        assert "correlation: r = +" in out
        assert "CPU ~" in out

    def test_pareto_prints_front(self, capsys):
        assert main(["pareto", "--budget", "1.0", "--generations", "30"]) == 0
        out = capsys.readouterr().out
        assert "Pareto-optimal plans" in out
        assert "Shards" in out
        assert "picked (balanced)" in out

    def test_pareto_pick_strategy_flag(self, capsys):
        assert main(["pareto", "--budget", "1.0", "--generations", "60",
                     "--pick", "cheapest"]) == 0
        assert "picked (cheapest)" in capsys.readouterr().out

    def test_pareto_reports_infeasible_gracefully(self, capsys):
        # A hopeless budget: even the minimum allocation costs more.
        assert main(["pareto", "--budget", "0.0001", "--generations", "5"]) == 1
        assert "no feasible plan" in capsys.readouterr().out

    def test_shootout_compares_all_styles(self, capsys):
        assert main(["shootout", "--duration", "1800"]) == 0
        out = capsys.readouterr().out
        for style in ("adaptive", "fixed", "quasi", "rule"):
            assert style in out
        assert "best on SLO violations" in out

    def test_shootout_jobs_output_identical_to_serial(self, capsys):
        assert main(["shootout", "--duration", "1200"]) == 0
        serial = capsys.readouterr().out
        assert main(["shootout", "--duration", "1200", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
