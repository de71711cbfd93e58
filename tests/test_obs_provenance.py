"""Decision provenance: the causal chain behind every mask change."""

import pytest

from repro.errors import ReproError
from repro.obs.provenance import (Decision, NullDecisionLog,
                                  dump_decisions, explain_decision,
                                  load_decisions)


def decision(**overrides) -> Decision:
    base = dict(
        time=0.24, tick=12, strategy="cpu_load", metric=82.3,
        th_min=10.0, th_max=70.0, state="Overload", entry="t1",
        entry_guard="u >= 70.0", exit="t5", exit_guard="nalloc < 16",
        action="allocate", mode="adaptive", core=9, node=2,
        cores_before=4, cores_after=5,
        sample={"cpu_load": 82.3, "ht_bytes": 1e6, "imc_bytes": 4e6,
                "ht_imc_ratio": 0.25, "runnable_threads": 12.0,
                "window": 0.02},
        priorities=(10.0, 4.0, 120.0, 0.0))
    base.update(overrides)
    return Decision(**base)


class TestDecision:
    def test_label_is_fig7_chain(self):
        assert decision().label == "t1-Overload-t5"

    def test_threshold_comparison_per_state(self):
        assert decision().threshold_comparison() == \
            "82.30 >= th_max=70"
        idle = decision(state="Idle", metric=4.0)
        assert idle.threshold_comparison() == "4.00 <= th_min=10"
        stable = decision(state="Stable", metric=40.0)
        assert stable.threshold_comparison() == \
            "th_min=10 < 40.00 < th_max=70"

    def test_records_are_frozen_with_slots(self):
        d = decision()
        with pytest.raises(AttributeError):
            d.metric = 1.0
        assert not hasattr(d, "__dict__")


class TestDecisionLog:
    def test_null_log_discards(self):
        log = NullDecisionLog()
        log.record(decision())
        assert len(log) == 0
        assert log.all() == []
        assert not log.enabled


class TestExplain:
    def test_allocation_account_names_guards_and_thresholds(self):
        text = explain_decision(decision())
        assert "tick 12 @ 0.240s" in text
        assert "t1-Overload-t5" in text
        assert "allocated core 9 (node 2)" in text
        assert "4 -> 5 cores" in text
        assert "cpu_load=82.3%" in text
        assert "82.30 >= th_max=70" in text
        assert "entry t1 (guard: u >= 70.0)" in text
        assert "exit t5 (guard: nalloc < 16)" in text
        assert "mode adaptive picked node 2" in text
        assert "[10, 4, 120, 0]" in text

    def test_no_action_account(self):
        text = explain_decision(decision(
            state="Stable", entry="t2", exit="t3", action=None,
            core=None, node=None, cores_after=4,
            exit_guard="none (always enabled)", priorities=None))
        assert "mask unchanged" in text
        assert "action     none" in text
        assert "not consulted" in text


class TestPersistence:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        decisions = [decision(tick=i) for i in range(3)]
        assert dump_decisions(decisions, path) == 3
        assert load_decisions(path) == decisions

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            load_decisions(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tick": 1}\n')
        with pytest.raises(ReproError):
            load_decisions(path)

    def test_unknown_fields_rejected(self, tmp_path):
        import dataclasses
        import json
        payload = dataclasses.asdict(decision())
        payload["surprise"] = 1
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ReproError):
            load_decisions(path)


class TestEndToEnd:
    """`repro explain` must reconstruct a recorded fig07-style run."""

    @pytest.fixture(scope="class")
    def recorded(self):
        from repro.db.clients import repeat_stream
        from repro.experiments.common import build_system
        from repro.obs import Recorder

        recorder = Recorder()
        sut = build_system(engine="monetdb", mode="adaptive",
                           scale=0.004, sim_scale=0.125, obs=recorder)
        sut.run_clients(4, repeat_stream("q6", 2))
        return recorder, sut

    def test_one_decision_per_tick(self, recorded):
        recorder, sut = recorded
        decisions = recorder.decisions.all()
        assert len(decisions) == sut.controller.ticks > 0
        assert [d.tick for d in decisions] == list(range(len(decisions)))

    def test_guard_values_match_the_model(self, recorded):
        recorder, sut = recorded
        model = sut.controller.model
        for d in recorder.decisions.all():
            assert d.entry_guard == model.guard_text(d.entry)
            # the threshold comparison restates the entry guard's
            # condition with the sampled metric value
            if d.state == "Overload":
                assert d.metric >= d.th_max
            elif d.state == "Idle":
                assert d.metric <= d.th_min
            else:
                assert d.th_min < d.metric < d.th_max
            assert d.strategy == "cpu_load"
            assert d.sample["cpu_load"] == pytest.approx(d.metric)

    def test_every_mask_change_has_a_causal_account(self, recorded):
        recorder, sut = recorded
        changed = [d for d in recorder.decisions.all()
                   if d.action is not None]
        assert changed, "run never exercised allocate/release"
        for d in changed:
            assert d.core is not None and d.node is not None
            assert d.node == sut.os.topology.node_of_core(d.core)
            if d.action == "allocate":
                assert d.exit == "t5"
                assert d.cores_after == d.cores_before + 1
            else:
                assert d.exit == "t4"
                assert d.cores_after == d.cores_before - 1
            # adaptive mode: the justifying priority snapshot is there
            assert d.priorities is not None
            text = explain_decision(d)
            assert d.entry_guard in text
            assert d.threshold_comparison() in text

    def test_decisions_agree_with_petrinet_counters(self, recorded):
        recorder, _ = recorded
        fired = {}
        for d in recorder.decisions.all():
            fired[d.entry] = fired.get(d.entry, 0) + 1
            fired[d.exit] = fired.get(d.exit, 0) + 1
        for name, count in fired.items():
            counter = recorder.metrics.counter(f"petrinet.fired.{name}")
            assert counter.value == count
