"""Trace export/import: JSON-lines serialisation of trace records.

A recorded simulation is most useful when it can leave the process —
for plotting, for diffing two runs, for regression baselines.  Records
are dataclasses, so they serialise naturally; each line carries the
record type and its fields:

    {"type": "MigrationRecord", "time": 0.04, "thread_id": 7, ...}

``load_records`` reconstructs the typed records, so a round-trip through
disk is lossless.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from ..errors import ReproError
from . import tracing

#: every exportable record type, by class name — derived from
#: :mod:`repro.sim.tracing` by introspection so a record type added
#: there cannot be silently dropped on export
RECORD_TYPES = {
    cls.__name__: cls
    for cls in vars(tracing).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    and cls.__module__ == tracing.__name__
}


def dump_records(records, path) -> int:
    """Write records to ``path`` as JSON lines; returns the count.

    Unknown (non-dataclass or unregistered) records are rejected rather
    than silently skipped.
    """
    path = pathlib.Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            name = type(record).__name__
            if name not in RECORD_TYPES:
                raise ReproError(f"cannot export record type {name}")
            payload = dataclasses.asdict(record)
            payload["type"] = name
            handle.write(json.dumps(payload) + "\n")
            count += 1
    return count


def dump_tracer(tracer: tracing.TraceRecorder, path) -> int:
    """Export everything a recorder holds."""
    return dump_records(tracer.all(), path)


def read_jsonl(path: pathlib.Path):
    """Yield ``(line_no, value)`` for each non-blank line of a JSON-lines
    file; a line that is not JSON raises, naming the file and line."""
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{line_no}: invalid JSON") from exc
            yield line_no, value


def load_records(path) -> list:
    """Read a JSON-lines trace back into typed records."""
    path = pathlib.Path(path)
    records = []
    for line_no, payload in read_jsonl(path):
        name = payload.pop("type", None)
        cls = RECORD_TYPES.get(name)
        if cls is None:
            raise ReproError(
                f"{path}:{line_no}: unknown record type {name!r}")
        try:
            records.append(cls(**payload))
        except TypeError as exc:
            raise ReproError(
                f"{path}:{line_no}: bad fields for {name}") from exc
    return records
