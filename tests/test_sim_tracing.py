"""Trace recorder: typed retrieval, muting and record pickling."""

import dataclasses
import pickle

import pytest

from repro.sim.export import RECORD_TYPES
from repro.sim.tracing import (MigrationRecord, PlacementRecord,
                               QueryRecord, TraceRecorder)


def _placement(t=0.0, tid=1, core=0, node=0):
    return PlacementRecord(time=t, thread_id=tid, core_id=core,
                           node_id=node)


def _migration(t=0.0, tid=1, src=0, dst=1, stolen=False):
    return MigrationRecord(time=t, thread_id=tid, src_core=src,
                           dst_core=dst, stolen=stolen)


def test_emission_order_preserved():
    tracer = TraceRecorder()
    tracer.emit(_placement(0.1))
    tracer.emit(_migration(0.2))
    tracer.emit(_placement(0.3))
    assert [type(r).__name__ for r in tracer.all()] == [
        "PlacementRecord", "MigrationRecord", "PlacementRecord"]


def test_typed_retrieval():
    tracer = TraceRecorder()
    tracer.emit(_placement())
    tracer.emit(_migration())
    assert len(tracer.of(PlacementRecord)) == 1
    assert len(tracer.of(MigrationRecord)) == 1
    assert len(tracer.of(QueryRecord)) == 0


def test_muting_suppresses_only_that_type():
    tracer = TraceRecorder()
    tracer.mute(PlacementRecord)
    tracer.emit(_placement())
    tracer.emit(_migration())
    assert len(tracer.of(PlacementRecord)) == 0
    assert len(tracer.of(MigrationRecord)) == 1


def test_clear_keeps_muting_state():
    tracer = TraceRecorder()
    tracer.mute(PlacementRecord)
    tracer.emit(_migration())
    tracer.clear()
    assert len(tracer) == 0
    tracer.emit(_placement())
    assert len(tracer) == 0


def test_empty_tracer_is_still_a_valid_tracer():
    """Regression: an empty recorder is falsy via __len__; constructors
    must not replace it with a fresh one."""
    from repro.opsys.system import OperatingSystem
    from repro.hardware.prebuilt import small_numa

    tracer = TraceRecorder()
    os_ = OperatingSystem(small_numa(), tracer=tracer)
    assert os_.tracer is tracer
    assert os_.scheduler.tracer is tracer


def test_iter_of_is_lazy_and_matching():
    tracer = TraceRecorder()
    for i in range(5):
        tracer.emit(_placement(t=float(i)))
    times = [r.time for r in tracer.iter_of(PlacementRecord)]
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("cls", sorted(RECORD_TYPES.values(),
                                       key=lambda c: c.__name__))
def test_records_pickle_as_type_and_fields_in_slot_order(cls):
    fields = dataclasses.fields(cls)
    values = tuple(f"{f.name}-value" for f in fields)
    record = cls(*values)
    assert cls.__slots__ == tuple(f.name for f in fields)
    assert record.__reduce__() == (cls, values)
    # the reduce tuple is the whole pickle: the bytes equal those of
    # the explicit positional rebuild
    assert pickle.dumps(record, 5) == _pickled_call(cls, values)
    assert pickle.loads(pickle.dumps(record)) == record


def test_every_record_type_shares_one_reduce():
    assert len(RECORD_TYPES) == 6
    assert len({cls.__reduce__.__code__
                for cls in RECORD_TYPES.values()}) == 1


class _Call:
    """Pickles as ``cls(*values)``: the reference for a record's bytes."""

    def __init__(self, cls, values):
        self.cls, self.values = cls, values

    def __reduce__(self):
        return self.cls, self.values


def _pickled_call(cls, values) -> bytes:
    return pickle.dumps(_Call(cls, values), 5)
