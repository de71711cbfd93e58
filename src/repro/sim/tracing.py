"""Structured trace records emitted by the simulation layers.

The paper's figures are mostly *traces*: thread placement over time (Figs 5
and 16), per-operator worker activity (Fig 6, the Tomograph view), fired
PetriNet transitions with the allocated-core staircase (Fig 7), and
per-socket memory throughput over time (Fig 18).  Every layer therefore
reports what it does to a shared :class:`TraceRecorder`; the experiment
harness filters the record stream afterwards.

Records are small frozen dataclasses (``slots=True``: traces are
high-volume).  They are intentionally denormalised
(they repeat ids rather than hold object references) so a trace can outlive
the simulation objects and be compared across runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import TypeVar


def _pickled_positionally(cls: type) -> type:
    """Give a record class one ``__reduce__``: its type and its fields
    in ``__slots__`` order.

    Snapshots pickle traces wholesale; rebuilding via the positional
    ``__init__`` skips the generic dataclass state machinery (fields()
    + per-field setattr lists).
    """
    fields = attrgetter(*cls.__slots__)

    def __reduce__(self):
        return type(self), fields(self)

    cls.__reduce__ = __reduce__
    return cls


@_pickled_positionally
@dataclass(frozen=True, slots=True)
class PlacementRecord:
    """A thread started running on a core (scheduling dispatch)."""

    time: float
    thread_id: int
    core_id: int
    node_id: int


@_pickled_positionally
@dataclass(frozen=True, slots=True)
class MigrationRecord:
    """A thread moved between cores; ``stolen`` marks load-balancer steals."""

    time: float
    thread_id: int
    src_core: int
    dst_core: int
    stolen: bool


@_pickled_positionally
@dataclass(frozen=True, slots=True)
class TransitionRecord:
    """One controller pass: the PrT chain it fired (``t1-Overload-t5``),
    the metric ``value`` and the governed ``tenant``'s cores after it."""

    time: float
    label: str
    state: str
    value: float
    cores_after: int
    tenant: str


@_pickled_positionally
@dataclass(frozen=True, slots=True)
class CoreAllocation:
    """``tenant``'s cpuset changed; ``core_id`` was added or removed."""

    time: float
    core_id: int
    node_id: int
    allocated: bool
    n_allocated: int
    tenant: str


@_pickled_positionally
@dataclass(frozen=True, slots=True)
class QueryRecord:
    """A query finished; the basic throughput/latency unit."""

    time: float
    client_id: int
    query_name: str
    start_time: float
    elapsed: float


@_pickled_positionally
@dataclass(frozen=True, slots=True)
class StageRecord:
    """One worker finished one plan-stage partition (Tomograph rows)."""

    time: float
    thread_id: int
    query_name: str
    operator: str
    start_time: float
    elapsed: float
    core_id: int



_R = TypeVar("_R")


class TraceRecorder:
    """Append-only sink for trace records, with typed retrieval.

    Recording can be muted per record type (high-volume experiments disable
    :class:`PlacementRecord` to save memory) via :meth:`mute`.
    """

    def __init__(self) -> None:
        self._records: list[object] = []
        self._muted: set[type] = set()

    def mute(self, record_type: type) -> None:
        """Stop recording instances of ``record_type``."""
        self._muted.add(record_type)

    def emit(self, record: object) -> None:
        """Append a record unless its type is muted."""
        if type(record) not in self._muted:
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def all(self) -> list[object]:
        """Every record in emission order."""
        return list(self._records)

    def of(self, record_type: type[_R]) -> list[_R]:
        """All records of one type, in emission order."""
        return [r for r in self._records if type(r) is record_type]

    def iter_of(self, record_type: type[_R]) -> Iterator[_R]:
        """Lazy variant of :meth:`of`."""
        return (r for r in self._records if type(r) is record_type)

    def clear(self) -> None:
        """Drop all records (muting state is preserved)."""
        self._records.clear()
