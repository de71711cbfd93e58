"""Simulated processes and trace export."""

import re

import pytest

from repro.errors import ReproError, SimulationError
from repro.obs.export import load_metrics_jsonl
from repro.obs.provenance import load_decisions
from repro.sim.engine import Simulator
from repro.sim.export import dump_records, dump_tracer, load_records
from repro.sim.process import every, spawn_process
from repro.sim.tracing import (MigrationRecord, PlacementRecord,
                               QueryRecord, TraceRecorder)


class TestProcess:
    def test_generator_runs_with_yielded_sleeps(self):
        sim = Simulator()
        log = []

        def body():
            log.append(sim.now)
            yield 0.5
            log.append(sim.now)
            yield 0.25
            log.append(sim.now)

        handle = spawn_process(sim, body())
        sim.run_until_idle()
        assert log == [0.0, 0.5, 0.75]
        assert handle.finished

    def test_start_delay(self):
        sim = Simulator()
        seen = []

        def body():
            seen.append(sim.now)
            yield 0.0

        spawn_process(sim, body(), start_delay=1.0)
        sim.run_until_idle()
        assert seen == [1.0]

    def test_cancel_stops_future_steps(self):
        sim = Simulator()
        ticks = []

        def body():
            while True:
                ticks.append(sim.now)
                yield 0.1

        handle = spawn_process(sim, body())
        sim.schedule(0.35, handle.cancel)
        sim.run_until_idle()
        assert len(ticks) == 4  # t=0, 0.1, 0.2, 0.3
        assert handle.cancelled
        assert handle._event is None

    def test_invalid_yield_rejected(self):
        sim = Simulator()

        def body():
            yield -1.0

        spawn_process(sim, body())
        with pytest.raises(SimulationError):
            sim.run_until_idle()

    def test_every_helper_with_condition(self):
        sim = Simulator()
        counter = []

        def tick():
            counter.append(sim.now)

        spawn_process(sim, every(0.2, tick,
                                 while_condition=lambda:
                                 len(counter) < 3))
        sim.run_until_idle()
        assert len(counter) == 3

    def test_every_rejects_bad_interval(self):
        with pytest.raises(SimulationError):
            every(0, lambda: None)


class TestExport:
    def _records(self):
        return [
            PlacementRecord(time=0.1, thread_id=1, core_id=2, node_id=0),
            MigrationRecord(time=0.2, thread_id=1, src_core=2,
                            dst_core=5, stolen=True),
            QueryRecord(time=0.3, client_id=0, query_name="q6",
                        start_time=0.0, elapsed=0.3),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        originals = self._records()
        assert dump_records(originals, path) == 3
        loaded = load_records(path)
        assert loaded == originals

    def test_dump_tracer(self, tmp_path):
        tracer = TraceRecorder()
        for record in self._records():
            tracer.emit(record)
        path = tmp_path / "trace.jsonl"
        assert dump_tracer(tracer, path) == 3
        assert load_records(path) == self._records()

    def test_unknown_type_rejected_on_dump(self, tmp_path):
        with pytest.raises(ReproError):
            dump_records([object()], tmp_path / "x.jsonl")

    def test_bad_json_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            load_records(path)

    def test_unknown_type_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "Mystery", "time": 1.0}\n')
        with pytest.raises(ReproError):
            load_records(path)

    def test_bad_fields_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "QueryRecord", "time": 1.0}\n')
        with pytest.raises(ReproError):
            load_records(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_records(self._records(), path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_records(path)) == 3

    def test_every_tracing_dataclass_is_registered(self):
        """A record type added to sim.tracing must be exportable —
        RECORD_TYPES is derived by introspection, so hand-listing
        cannot silently drop one."""
        import dataclasses

        from repro.sim import tracing
        from repro.sim.export import RECORD_TYPES

        declared = {cls.__name__ for cls in vars(tracing).values()
                    if isinstance(cls, type)
                    and dataclasses.is_dataclass(cls)
                    and cls.__module__ == tracing.__name__}
        assert declared == set(RECORD_TYPES)
        assert len(RECORD_TYPES) >= 6

    def test_new_record_type_is_picked_up_by_introspection(self):
        import dataclasses
        import importlib

        from repro.sim import export, tracing

        @dataclasses.dataclass(frozen=True, slots=True)
        class ProbeRecord:
            time: float

        ProbeRecord.__module__ = tracing.__name__
        tracing.ProbeRecord = ProbeRecord
        try:
            assert "ProbeRecord" in \
                importlib.reload(export).RECORD_TYPES
        finally:
            del tracing.ProbeRecord
            importlib.reload(export)

    def test_end_to_end_simulation_trace(self, tmp_path):
        """Export a real run's trace and reload it."""
        from repro.experiments.common import build_system
        from repro.db.clients import repeat_stream

        sut = build_system(scale=0.004, sim_scale=0.125)
        sut.run_clients(1, repeat_stream("q6", 1))
        path = tmp_path / "run.jsonl"
        count = dump_tracer(sut.os.tracer, path)
        assert count == len(sut.os.tracer)
        assert load_records(path) == sut.os.tracer.all()


@pytest.mark.parametrize("load", [load_records, load_decisions,
                                  load_metrics_jsonl])
def test_jsonl_loaders_skip_blank_lines_and_name_a_bad_one(tmp_path, load):
    path = tmp_path / "log.jsonl"
    path.write_text("\n   \n")
    assert load(path) == []
    path.write_text("\n   \n{not json\n")
    with pytest.raises(ReproError,
                       match=re.escape(f"{path}:3: invalid JSON")):
        load(path)
