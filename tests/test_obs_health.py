"""Controller-health analyzers: convergence, oscillation, lag."""

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.export import load_metrics_jsonl
from repro.obs.health import (HealthConfig, HealthSuite, TenantHealth,
                              analyze_decisions)
from repro.obs.provenance import Decision, load_decisions


def decision(time, tick, state, action=None, core=None, cores_after=1,
             tenant="db", metric=50.0):
    """A minimal but fully-formed controller decision."""
    return Decision(
        time=time, tick=tick, strategy="cpu_load", metric=metric,
        th_min=10.0, th_max=70.0, state=state, entry="t1",
        entry_guard="x <= th_max", exit="t2", exit_guard="x > th_min",
        action=action, mode="default", core=core, node=0,
        cores_before=cores_after if action is None else
        cores_after - (1 if action == "allocate" else -1),
        cores_after=cores_after, tenant=tenant)


class TestConvergence:
    def test_streak_of_stable_passes_converges(self):
        health = TenantHealth("db", HealthConfig(stable_streak=3))
        for i in range(3):
            health.observe(decision(1.0 + i, i, "Stable"))
            assert health.converged == (i == 2)
        # sim seconds from the first decision to the converging pass
        assert health.convergence_time == pytest.approx(2.0)

    def test_interrupted_streak_restarts(self):
        health = TenantHealth("db", HealthConfig(stable_streak=2))
        health.observe(decision(1.0, 0, "Stable"))
        health.observe(decision(2.0, 1, "Overload", action="allocate",
                                core=1, cores_after=2))
        health.observe(decision(3.0, 2, "Stable"))
        assert not health.converged
        health.observe(decision(4.0, 3, "Stable"))
        assert health.converged

    def test_leaving_stable_after_convergence_is_a_divergence(self):
        health = TenantHealth("db", HealthConfig(stable_streak=1))
        health.observe(decision(1.0, 0, "Stable"))
        assert health.converged
        health.observe(decision(2.0, 1, "Overload"))
        assert not health.converged
        assert health.divergences == 1
        # convergence_time keeps the first convergence (time-to-LONC)
        assert health.convergence_time == pytest.approx(0.0)


class TestOscillation:
    def test_ping_pong_scores_one(self):
        health = TenantHealth("db", HealthConfig())
        actions = ["allocate", "release", "allocate", "release"]
        for i, action in enumerate(actions):
            health.observe(decision(float(i), i, "Overload",
                                    action=action, core=1))
        assert health.oscillation == 1.0

    def test_monotone_growth_scores_zero(self):
        health = TenantHealth("db", HealthConfig())
        for i in range(4):
            health.observe(decision(float(i), i, "Overload",
                                    action="allocate", core=i,
                                    cores_after=i + 2))
        assert health.oscillation == 0.0

    def test_non_acting_passes_do_not_count(self):
        health = TenantHealth("db", HealthConfig())
        health.observe(decision(0.0, 0, "Stable"))
        health.observe(decision(1.0, 1, "Stable"))
        assert health.oscillation == 0.0


class TestFlapping:
    def test_state_change_rate(self):
        health = TenantHealth("db", HealthConfig())
        for i, state in enumerate(["Stable", "Overload", "Stable",
                                   "Overload"]):
            health.observe(decision(float(i), i, state))
        assert health.flapping == 1.0

    def test_steady_state_does_not_flap(self):
        health = TenantHealth("db", HealthConfig())
        for i in range(5):
            health.observe(decision(float(i), i, "Stable"))
        assert health.flapping == 0.0


class TestAllocationLag:
    def test_lag_counts_ticks_from_threshold_crossing(self):
        health = TenantHealth("db", HealthConfig())
        health.observe(decision(0.0, 0, "Stable"))
        # tick 1 leaves Stable (the crossing); no free core holds the
        # core change back until tick 3
        health.observe(decision(1.0, 1, "Overload"))
        health.observe(decision(2.0, 2, "Overload"))
        health.observe(decision(3.0, 3, "Overload", action="allocate",
                                core=2, cores_after=2))
        assert health.last_lag == 3
        assert health.lags == [3]

    def test_immediate_application_has_lag_one(self):
        health = TenantHealth("db", HealthConfig())
        health.observe(decision(1.0, 1, "Overload", action="allocate",
                                core=1, cores_after=2))
        assert health.last_lag == 1

    def test_returning_to_stable_abandons_the_episode(self):
        health = TenantHealth("db", HealthConfig())
        health.observe(decision(1.0, 1, "Overload"))
        health.observe(decision(2.0, 2, "Stable"))
        health.observe(decision(3.0, 3, "Overload", action="allocate",
                                core=1, cores_after=2))
        assert health.last_lag == 1  # episode restarted at tick 3
        assert health.mean_lag == pytest.approx(1.0)


class TestProvenance:
    def test_last_action_links_back_to_the_decision(self):
        health = TenantHealth("db", HealthConfig())
        health.observe(decision(1.0, 4, "Overload", action="allocate",
                                core=7, cores_after=3))
        assert health.last_action == {
            "time": 1.0, "tick": 4, "action": "allocate", "core": 7,
            "state": "Overload", "cores_after": 3}
        health.observe(decision(2.0, 5, "Stable"))
        assert health.last_action["tick"] == 4  # unchanged by no-ops


class TestSuiteAndReplay:
    def test_suite_routes_by_tenant(self):
        suite = HealthSuite()
        suite.observe(decision(1.0, 0, "Stable", tenant="db"))
        suite.observe(decision(1.0, 0, "Overload", tenant="oltp"))
        assert set(suite.tenants) == {"db", "oltp"}
        assert suite.snapshot()["oltp"]["decisions"] == 1

    def test_post_hoc_replay_matches_incremental(self):
        stream = [
            decision(0.0, 0, "Overload", action="allocate", core=1,
                     cores_after=2),
            decision(1.0, 1, "Stable"),
            decision(2.0, 2, "Stable"),
            decision(3.0, 3, "Stable"),
            decision(4.0, 4, "Underload", action="release", core=1,
                     cores_after=1),
        ]
        live = HealthSuite()
        for d in stream:
            live.observe(d)
        replay = analyze_decisions(stream)
        assert replay.snapshot() == live.snapshot()

    def test_config_validation(self):
        with pytest.raises(ReproError):
            HealthConfig(stable_streak=0)
        with pytest.raises(ReproError):
            HealthConfig(osc_window=1)


def test_health_table_agrees_with_the_metric_channel(tmp_path, capsys):
    """The health table replays the decision log, and the controller
    metrics are counted from the same decisions; both must report the
    same controller passes and core moves."""
    out = tmp_path / "fig7"
    assert main(["run", "fig7", "--telemetry", str(out)]) == 0
    counters = {entry["name"]: entry["value"]
                for entry in load_metrics_jsonl(out / "metrics.jsonl")
                if entry["kind"] == "counter"}
    decisions = load_decisions(out / "decisions.jsonl")
    health = analyze_decisions(decisions).snapshot()["db"]
    assert health["decisions"] == counters["controller.ticks"] > 0
    actions = [d.action for d in decisions]
    assert actions.count("allocate") == counters["controller.allocations"]
    assert actions.count("release") == counters["controller.releases"]

    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    stats = capsys.readouterr().out
    assert "controller health" in stats
    (row,) = [line.split() for line in stats.splitlines()
              if line.startswith("db ")]
    assert row[1] == str(health["decisions"])
    assert row[2] == ("yes" if health["converged"] else "no")
    assert row[4] == str(health["divergences"])
    for field, key in ((3, "convergence_time"), (5, "oscillation"),
                       (6, "flapping"), (7, "mean_lag")):
        if health[key] is None:
            assert row[field] == "-"
        else:
            assert float(row[field]) == pytest.approx(health[key],
                                                      abs=5e-3)
