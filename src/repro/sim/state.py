"""Snapshot/fork support: capture a simulation graph, restore it N times.

A sweep re-simulates the same warm-up prefix (data load, first-touch page
placement, thread spawning) once per cell.  :class:`SimState` captures the
*entire* object graph of a warmed system — event heap, live counter, RNG
streams, page tables, per-core load counters — as one pickle payload, so
the prefix runs once and every cell forks from it.  Restoring is pure
deserialisation: each call to :meth:`SimState.restore` produces a fresh,
fully independent copy, and because pickling preserves within-graph object
identity, the copy's internal wiring (scheduler -> machine -> counters,
bound-method callbacks queued on the heap) is exactly the original's.
A system's whole state is its object graph — it numbers its own threads,
and no simulation state lives in a process global — so a fork continues
exactly where its base stopped.

**Shared atoms** keep the capture cheap: immutable bulk data (the TPC-H
dataset and its numpy columns) is externalised by identity via the pickle
persistent-id hook instead of being serialised into the payload.  Every
fork references the same arrays, which is safe because the simulation
never mutates them, and keeps a snapshot at tens of kilobytes instead of
tens of megabytes.  The same persistent-id pair (:func:`dumps_shared` /
:func:`loads_shared`) keeps the atoms out of the worker pool's task and
result pickles.  A mutable object every fork is meant to write into (a
telemetry recorder and its sinks) is shared the same way.

A :class:`SimState` is itself picklable (payload bytes + shared tuple), so
snapshots travel across the spawn pool: the parent warms one system, and
``repro run --parallel N`` ships the capture to workers that fork their
cells from it.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..atoms import atom_digest as _atom_digest
from ..errors import SimulationError

class _SharedPickler(pickle.Pickler):
    """Pickler externalising shared atoms by object identity."""

    def __init__(self, file: io.BytesIO, index: Mapping[int, int]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._index = index

    def persistent_id(self, obj: Any) -> int | None:
        return self._index.get(id(obj))


class _SharedUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent ids back to the shared atoms."""

    def __init__(self, file: io.BytesIO, shared: Sequence[Any]):
        super().__init__(file)
        self._shared = shared

    def persistent_load(self, pid: Any) -> Any:
        try:
            return self._shared[pid]
        except (TypeError, IndexError):
            raise SimulationError(
                f"pickle references unknown shared atom {pid!r}") \
                from None


def dumps_shared(value: Any, index: Mapping[int, int]) -> bytes:
    """Pickle ``value`` with every indexed atom replaced by its position.

    ``index`` maps ``id(atom)`` to the atom's position in the sequence
    :func:`loads_shared` later resolves against; atoms match by
    identity, never by value.
    """
    buffer = io.BytesIO()
    _SharedPickler(buffer, index).dump(value)
    return buffer.getvalue()


def loads_shared(data: bytes, shared: Sequence[Any]) -> Any:
    """Unpickle :func:`dumps_shared` output against the shared atoms."""
    return _SharedUnpickler(io.BytesIO(data), shared).load()


@dataclass(frozen=True)
class SimState:
    """One captured simulation graph; restore as many times as needed."""

    #: the pickled object graph (shared atoms externalised)
    payload: bytes
    #: the atoms referenced by identity from the payload
    shared: tuple[Any, ...] = ()

    @classmethod
    def capture(cls, root: Any, shared: Iterable[Any] = ()) -> "SimState":
        """Snapshot ``root``'s full object graph.

        ``shared`` lists objects to externalise by identity (compared
        with ``is``, not ``==``) — immutable data, or sinks every fork
        should share; everything else reachable from ``root`` is
        serialised into the payload.
        """
        shared_atoms = tuple(shared)
        index = {id(obj): i for i, obj in enumerate(shared_atoms)}
        try:
            payload = dumps_shared(root, index)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise SimulationError(
                f"cannot capture simulation state: {exc} (lambdas and "
                f"local closures do not pickle; use a module-level "
                f"class with __call__ instead)") from exc
        return cls(payload=payload, shared=shared_atoms)

    def restore(self) -> Any:
        """Materialise a fresh, independent copy of the captured graph.

        The payload is deserialised against the shared atoms.  Each call
        returns a new copy; forks never alias each other's mutable state.
        """
        return loads_shared(self.payload, self.shared)

    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the capture (cache-key canonicalisation).

        Stable across processes for identical captures: the payload bytes
        pin the graph, the shared atoms are digested by value (numpy
        arrays via their raw buffer).  Memoised — the shared atoms can be
        megabytes.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(self.payload)
        for atom in self.shared:
            digest.update(_atom_digest(atom))
        value = digest.hexdigest()
        self.__dict__["_fingerprint"] = value
        return value

    def size_bytes(self) -> int:
        """Payload size (diagnostics; excludes the shared atoms)."""
        return len(self.payload)
