"""Hardware-counter bank: the simulation's likwid/mpstat stand-in.

Counters are cumulative floats addressed by ``(name, index)`` — e.g.
``("l3_miss", socket)``, ``("busy_time", core)`` or a per-query family
like ``("query_ht_bytes", "q6")`` (indexes are any hashable).  Consumers
needing *rates over a window* (the controller's monitor, the harnesses)
take a :class:`CounterSnapshot` and later diff against a newer one, exactly
how a real monitoring loop samples MSRs.

Per-family dicts
----------------
Storage is **per family**: each counter name owns one plain ``dict``
from index to value (a :class:`_Family`, whose ``__missing__`` reads an
absent counter as ``0.0`` without creating it).  Hot writers resolve a
family handle once and update it in place with ``family[index] +=
amount`` — one C-level dict read and store per counter event.
``total()``/``by_index()`` touch only the requested family.  A family's
keys sit in first-write order, so ``total()`` adds left-to-right in that
order on every call and its float result never depends on other
families.  Snapshots copy each family with one ``dict()`` call.

Writers pass Python ``int``/``float`` amounts: a counter value is always
a Python ``float`` (``0.0 + amount`` on first write), which keeps
digests and pickles free of numpy scalars.
"""

from __future__ import annotations


class _Family(dict):
    """One counter family: ``index -> value`` in first-write order.

    Reading a missing index yields ``0.0`` and does not insert it, so
    ``family[index] += amount`` creates the counter only on a write.
    """

    __slots__ = ()

    def __missing__(self, index) -> float:
        return 0.0


class _Reads:
    """Family reads shared by the live bank and its snapshots.

    Each reduction touches only the requested family (O(family), not
    O(all counters)) and adds left-to-right in first-write order.
    """

    __slots__ = ()
    _families: dict[str, dict]

    def get(self, name: str, index=0) -> float:
        """Cumulative value of one counter."""
        family = self._families.get(name)
        return 0.0 if family is None else family.get(index, 0.0)

    def total(self, name: str) -> float:
        """Sum of one counter family across all indices."""
        family = self._families.get(name)
        return 0.0 if family is None else sum(family.values())

    def by_index(self, name: str) -> dict:
        """Family values keyed by index (e.g. per-socket L3 misses)."""
        family = self._families.get(name)
        return {} if family is None else dict(family)


class CounterSnapshot(_Reads):
    """Immutable copy of all counters at one instant.

    ``families`` maps name to a plain ``index -> value`` dict copied
    from the live bank; later writes and resets never reach it.
    """

    __slots__ = ("time", "_families")

    def __init__(self, time: float, families: dict[str, dict]):
        self.time = time
        self._families = families

    def delta(self, earlier: "CounterSnapshot", name: str,
              index=0) -> float:
        """Counter increase between ``earlier`` and this snapshot."""
        return self.get(name, index) - earlier.get(name, index)

    def delta_total(self, earlier: "CounterSnapshot", name: str) -> float:
        """Family-wide increase between ``earlier`` and this snapshot."""
        return self.total(name) - earlier.total(name)


class CounterBank(_Reads):
    """Mutable cumulative counters, written by the hardware/OS models.

    Well-known families used across the library:

    ``l3_hit`` / ``l3_miss``
        per-socket shared-cache outcomes (events);
    ``imc_bytes``
        bytes served by each node's integrated memory controller;
    ``ht_tx_bytes``
        bytes each node pushed onto the interconnect;
    ``busy_time``
        per-core seconds spent executing threads;
    ``minor_faults``
        per-node minor page faults;
    ``migrations`` / ``stolen_tasks``
        per-core scheduler activity;
    ``tasks``
        per-core dispatch count.
    """

    __slots__ = ("_families",)

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def add(self, name: str, index, amount: float) -> None:
        """Increase counter ``(name, index)`` by ``amount`` (>= 0)."""
        self.family(name)[index] += amount

    def increment(self, name: str, index=0) -> None:
        """Increase counter ``(name, index)`` by one event."""
        self.family(name)[index] += 1.0

    def family(self, name: str) -> _Family:
        """Live handle on one family for hot writers.

        The returned dict stays valid for the lifetime of the bank —
        :meth:`reset` clears it in place — so callers may resolve it
        once (e.g. at machine construction) and write
        ``handle[index] += amount`` per event.  Creating the handle
        creates no counter, so first-write order is unchanged.
        """
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family()
        return family

    def snapshot(self, time: float) -> CounterSnapshot:
        """Copy all counters for windowed-rate computation."""
        return CounterSnapshot(
            time, {name: dict(family)
                   for name, family in self._families.items()})

    def reset(self) -> None:
        """Zero every counter (used between experiment repetitions).

        Each family is cleared in place, so :meth:`family` handles stay
        valid; snapshots hold their own copies and are unaffected.
        """
        for family in self._families.values():
            family.clear()
