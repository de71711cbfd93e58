"""The command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BROKEN_MODELS = str(FIXTURES / "broken_models.py")


def test_every_experiment_is_registered():
    expected = {"fig4", "fig5", "fig6", "fig7", "fig13", "fig14",
                "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
                "overhead", "sla", "oltp", "multi-tenant",
                "ablation-thresholds", "ablation-strategies",
                "ablation-parallelism", "predicate-aware", "morsel",
                "ablation-autonuma"}
    assert set(EXPERIMENTS) == expected


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_command_prints_table(capsys):
    code = main(["run", "fig6", "--scale", "0.004",
                 "--sim-scale", "0.125"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Tomograph" in out
    assert "algebra.thetasubselect" in out


def test_run_rejects_inapplicable_option(capsys):
    code = main(["run", "fig6", "--users", "1,2"])
    assert code == 2
    assert "does not accept" in capsys.readouterr().err


def test_run_parses_users_tuple(capsys):
    code = main(["run", "fig13", "--users", "1,2", "--repetitions", "1",
                 "--scale", "0.004", "--sim-scale", "0.125"])
    assert code == 0
    out = capsys.readouterr().out
    assert "thetasubselect vs concurrency" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_compare_command(capsys):
    code = main(["compare", "--workload", "q6", "--clients", "2",
                 "--repetitions", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "monetdb/OS" in out
    assert "monetdb/adaptive" in out


# ------------------------------------------------------------------
# telemetry: run --telemetry, stats, explain
# ------------------------------------------------------------------

@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    """One recorded fig7 run shared by the telemetry CLI tests."""
    out = tmp_path_factory.mktemp("telemetry") / "fig7"
    code = main(["run", "fig7", "--telemetry", str(out),
                 "--repetitions", "1", "--scale", "0.002",
                 "--sim-scale", "0.05"])
    assert code == 0
    return out


def test_run_telemetry_exports_all_formats(telemetry_dir):
    for name in ("metrics.prom", "metrics.jsonl", "trace.json",
                 "decisions.jsonl"):
        assert (telemetry_dir / name).exists()
    document = json.loads((telemetry_dir / "trace.json").read_text())
    assert document["traceEvents"]
    phases = {e["name"] for e in document["traceEvents"]}
    assert {"controller.tick", "controller.sample",
            "controller.evaluate", "controller.fire",
            "controller.apply"} <= phases


def test_run_telemetry_uninstalls_recorder(telemetry_dir):
    from repro.obs import NULL_RECORDER, current_recorder
    assert current_recorder() is NULL_RECORDER


def test_stats_command(telemetry_dir, capsys):
    assert main(["stats", str(telemetry_dir)]) == 0
    out = capsys.readouterr().out
    assert "controller.ticks" in out
    assert "scheduler.dispatches" in out


def test_stats_tenant_filter(telemetry_dir, capsys):
    assert main(["stats", str(telemetry_dir), "--tenant", "db"]) == 0
    out = capsys.readouterr().out
    assert "(tenant db)" in out
    assert "controller.ticks" in out
    # machine-wide metrics are filtered out with the tenant lens on
    assert "scheduler.dispatches" not in out
    assert "controller health" in out
    assert main(["stats", str(telemetry_dir),
                 "--tenant", "nobody"]) == 0
    out = capsys.readouterr().out
    assert "no metrics recorded" in out
    assert "controller health" not in out


def test_stats_without_decision_log_skips_health(telemetry_dir, tmp_path,
                                                 capsys):
    metrics = tmp_path / "metrics.jsonl"
    metrics.write_text((telemetry_dir / "metrics.jsonl").read_text())
    assert main(["stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "controller.ticks" in out
    assert "controller health" not in out


def test_stats_missing_path_is_an_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path)]) == 2
    assert "no metrics snapshot" in capsys.readouterr().err


def test_explain_renders_causal_chains(telemetry_dir, capsys):
    assert main(["explain", str(telemetry_dir), "--action-only"]) == 0
    out = capsys.readouterr().out
    assert "guard:" in out
    assert "th_max" in out or "th_min" in out
    assert "rule" in out and "condition" in out and "action" in out


def test_explain_tick_filter(telemetry_dir, capsys):
    assert main(["explain", str(telemetry_dir), "--tick", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tick 0 ")
    assert main(["explain", str(telemetry_dir), "--tick", "9999"]) == 2
    assert "no decision" in capsys.readouterr().err


def test_explain_tenant_filter(telemetry_dir, capsys):
    # the recorded run is the single default tenant: "db" keeps all
    assert main(["explain", str(telemetry_dir), "--tenant", "db",
                 "--limit", "1"]) == 0
    assert "tick" in capsys.readouterr().out
    assert main(["explain", str(telemetry_dir),
                 "--tenant", "nobody"]) == 0
    assert "no matching decisions" in capsys.readouterr().out


def test_explain_limit_elides(telemetry_dir, capsys):
    assert main(["explain", str(telemetry_dir), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "elided" in out


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_explain_limit_below_one_is_a_usage_error(telemetry_dir, limit,
                                                  capsys):
    # a slice with 0 or a negative bound would print every decision or
    # silently drop the first ones
    with pytest.raises(SystemExit) as exc:
        main(["explain", str(telemetry_dir), "--limit", limit])
    assert exc.value.code == 2
    assert "--limit: must be >= 1" in capsys.readouterr().err


def test_explain_json_output(telemetry_dir, capsys):
    assert main(["explain", str(telemetry_dir), "--json",
                 "--limit", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 2
    record = json.loads(lines[0])
    assert {"tick", "entry_guard", "exit_guard", "sample"} <= set(record)


def test_explain_missing_path_is_an_error(tmp_path, capsys):
    assert main(["explain", str(tmp_path)]) == 2
    assert "no decision log" in capsys.readouterr().err


# ------------------------------------------------------------------
# the verify subcommand
# ------------------------------------------------------------------

def test_verify_clean_run_exits_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    for check in ("guard-coverage", "reachability", "p-invariant",
                  "lint:wall-clock"):
        assert check in out


def test_verify_json_schema(capsys):
    assert main(["verify", "--json", "--strategy", "cpu_load",
                 "--no-lint"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    (report,) = document["reports"]
    assert set(report) == {"subject", "ok", "checks", "findings"}
    assert "guard-coverage" in report["checks"]
    assert report["findings"] == []


def test_verify_guard_gap_fixture_fails_naming_property(capsys):
    code = main(["verify", "--no-lint",
                 "--fixture", f"{BROKEN_MODELS}:build_gap"])
    assert code == 1
    out = capsys.readouterr().out
    assert "guard-coverage" in out and "gap" in out
    assert "verification FAILED" in out


def test_verify_nonconservative_fixture_fails(capsys):
    code = main(["verify", "--no-lint", "--json",
                 "--fixture", f"{BROKEN_MODELS}:build_leaky"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    checks = {f["check"] for r in document["reports"]
              for f in r["findings"]}
    assert "p-invariant" in checks


def test_verify_injected_wall_clock_fails(tmp_path, capsys):
    core = tmp_path / "core"
    core.mkdir()
    core.joinpath("clock.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n")
    code = main(["verify", "--no-model", "--src", str(tmp_path)])
    assert code == 1
    assert "lint:wall-clock" in capsys.readouterr().out


def test_verify_clean_src_tree_passes(tmp_path):
    tmp_path.joinpath("ok.py").write_text("x = 1\n")
    assert main(["verify", "--no-model", "--src", str(tmp_path)]) == 0


def test_verify_inverted_thresholds_reported_not_crashed(capsys):
    code = main(["verify", "--no-lint", "--strategy", "cpu_load",
                 "--th-min", "70", "--th-max", "10"])
    assert code == 1
    assert "thresholds inverted" in capsys.readouterr().out


def test_verify_missing_fixture_is_an_error(capsys):
    assert main(["verify", "--fixture", "/does/not/exist.py"]) == 2
    assert "not found" in capsys.readouterr().err


def test_verify_lint_only_skips_model_checks(capsys):
    assert main(["verify", "--lint-only"]) == 0
    out = capsys.readouterr().out
    assert "guard-coverage" not in out
    assert "flow:lease-rollback" in out
    assert "verification passed" in out


def test_verify_all_runs_every_rule_family(capsys):
    assert main(["verify", "--all", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    checks = {check for report in document["reports"]
              for check in report["checks"]}
    assert {"guard-coverage", "lint:wall-clock",
            "flow:lease-rollback", "flow:spawn-unpicklable",
            "flow:set-iteration"} <= checks


def test_verify_list_rules_prints_catalog(capsys):
    assert main(["verify", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "flow:lease-rollback" in out
    assert "flow:set-iteration" in out
    assert "fix:" in out


def test_verify_unknown_rule_id_is_an_error(capsys):
    assert main(["verify", "--rules", "flow:no-such-rule"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_verify_rules_subset(capsys):
    assert main(["verify", "--lint-only", "--json",
                 "--rules", "lint:wall-clock,lint:unseeded-random"]) == 0
    document = json.loads(capsys.readouterr().out)
    (report,) = document["reports"]
    assert set(report["checks"]) == {"lint:wall-clock",
                                     "lint:unseeded-random"}


def test_verify_files_runs_changed_files_only(tmp_path, capsys):
    sim = tmp_path / "sim"
    sim.mkdir()
    bad = sim / "bad.py"
    bad.write_text("import time\nnow = time.time()\n")
    (sim / "also_bad_but_not_given.py").write_text(
        "import time\nnow = time.time()\n")
    code = main(["verify", "--src", str(tmp_path),
                 "--files", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("!!") == 1
    assert "lint:wall-clock" in out
    assert "sim/bad.py" in out


def test_verify_baseline_demotes_then_gates(tmp_path, capsys):
    sim = tmp_path / "sim"
    sim.mkdir()
    bad = sim / "bad.py"
    bad.write_text("import time\nnow = time.time()\n")
    baseline = tmp_path / "baseline.json"

    assert main(["verify", "--src", str(tmp_path),
                 "--write-baseline", str(baseline)]) == 0
    assert "wrote 1 baseline entry" in capsys.readouterr().out

    # grandfathered: visible as a warning, exit code clean
    assert main(["verify", "--lint-only", "--src", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    assert "[grandfathered]" in capsys.readouterr().out

    # a new finding still fails even with the baseline applied
    bad.write_text("import time\nnow = time.time()\n"
                   "import random\nx = random.random()\n")
    assert main(["verify", "--lint-only", "--src", str(tmp_path),
                 "--baseline", str(baseline)]) == 1
    assert "lint:unseeded-random" in capsys.readouterr().out

    # finding fixed: the baseline entry is reported stale
    bad.write_text("x = 1\n")
    assert main(["verify", "--lint-only", "--src", str(tmp_path),
                 "--baseline", str(baseline)]) == 0
    assert "baseline:stale-entry" in capsys.readouterr().out
