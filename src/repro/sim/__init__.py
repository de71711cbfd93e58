"""Discrete-event simulation core.

The simulator is a classic event-heap design: components schedule callbacks
at absolute simulated times, the engine pops them in order and advances the
clock.  Everything above this layer (hardware, OS, database, controller) is
written against :class:`~repro.sim.engine.Simulator`.
"""

from .engine import Event, Simulator, delivered_total
from .export import dump_records, dump_tracer, load_records
from .process import ProcessHandle, every, spawn_process
from .state import SimState
from .tracing import (
    CoreAllocation,
    MigrationRecord,
    PlacementRecord,
    QueryRecord,
    StageRecord,
    TraceRecorder,
    TransitionRecord,
)

__all__ = [
    "Event",
    "Simulator",
    "SimState",
    "delivered_total",
    "spawn_process",
    "ProcessHandle",
    "every",
    "dump_records",
    "dump_tracer",
    "load_records",
    "TraceRecorder",
    "PlacementRecord",
    "MigrationRecord",
    "TransitionRecord",
    "CoreAllocation",
    "QueryRecord",
    "StageRecord",
]
