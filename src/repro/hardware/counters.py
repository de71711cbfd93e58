"""Hardware-counter bank: the simulation's likwid/mpstat stand-in.

Counters are cumulative floats addressed by ``(name, index)`` — e.g.
``("l3_miss", socket)``, ``("busy_time", core)`` or a per-query family
like ``("query_ht_bytes", "q6")`` (indexes are any hashable).  Consumers
needing *rates over a window* (the controller's monitor, the harnesses)
take a :class:`CounterSnapshot` and later diff against a newer one, exactly
how a real monitoring loop samples MSRs.

Array-backed layout
-------------------
Storage is **per family**: each counter name owns a compact
``array('d')`` of values plus an index map assigning every index a slot.
This replaces the original flat ``(name, index) -> float`` dict, whose
``total()``/``by_index()`` had to scan *every* counter of *every*
family on each monitor tick.  Family reductions now touch only that
family's C-contiguous array — and ``sum()`` over an ``array('d')`` adds
left-to-right exactly like the old generator expression, so totals are
bit-identical (slot order *is* the old dict's family-restricted
insertion order).  Snapshots copy the value arrays (one C memcpy per
family) and alias the slot maps, which only ever grow; batch consumers
may grab a zero-copy numpy view via :meth:`CounterBank.family_values`.
"""

from __future__ import annotations

from array import array


class _Family:
    """One counter family: slot map + packed values.

    ``slots`` assigns each index a position in ``values`` in first-write
    order, so iterating ``slots`` replays the family's insertion order —
    the same order the flat dict layout exposed.
    """

    __slots__ = ("slots", "values")

    def __init__(self) -> None:
        self.slots: dict = {}
        self.values: array = array("d")

    def add(self, index, amount: float) -> None:
        """Increase the counter at ``index`` by ``amount``.

        The hot-path entry point for callers holding a
        :meth:`CounterBank.family` handle: one dict probe and one array
        store, no per-call family lookup.
        """
        pos = self.slots.get(index)
        if pos is None:
            self.slots[index] = len(self.values)
            self.values.append(0.0 + amount)
        else:
            self.values[pos] += amount


class CounterSnapshot:
    """Immutable copy of all counters at one instant.

    ``families`` maps name to ``(slots, values)`` where ``slots`` is
    aliased from the live bank (it only grows, never mutates in place)
    and ``values`` is a frozen copy; a slot past the copied length is a
    counter born after the snapshot, read as 0.0.
    """

    __slots__ = ("time", "_families")

    def __init__(self, time: float,
                 families: dict[str, tuple[dict, array]]):
        self.time = time
        self._families = families

    def get(self, name: str, index=0) -> float:
        """Cumulative value of one counter at snapshot time."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        slots, values = family
        pos = slots.get(index)
        if pos is None or pos >= len(values):
            return 0.0
        return values[pos]

    def total(self, name: str) -> float:
        """Sum of one counter family across all indices."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        return sum(family[1])

    def by_index(self, name: str) -> dict:
        """Family values keyed by index (e.g. per-socket L3 misses)."""
        family = self._families.get(name)
        if family is None:
            return {}
        slots, values = family
        n = len(values)
        return {i: values[p] for i, p in slots.items() if p < n}

    def delta(self, earlier: "CounterSnapshot", name: str,
              index=0) -> float:
        """Counter increase between ``earlier`` and this snapshot."""
        return self.get(name, index) - earlier.get(name, index)

    def delta_total(self, earlier: "CounterSnapshot", name: str) -> float:
        """Family-wide increase between ``earlier`` and this snapshot."""
        return self.total(name) - earlier.total(name)

    def rate(self, earlier: "CounterSnapshot", name: str,
             index=0) -> float:
        """Per-second rate of one counter over the snapshot window."""
        dt = self.time - earlier.time
        if dt <= 0:
            return 0.0
        return self.delta(earlier, name, index) / dt

    def rate_total(self, earlier: "CounterSnapshot", name: str) -> float:
        """Per-second family-wide rate over the snapshot window."""
        dt = self.time - earlier.time
        if dt <= 0:
            return 0.0
        return self.delta_total(earlier, name) / dt


class CounterBank:
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
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family()
        pos = family.slots.get(index)
        if pos is None:
            family.slots[index] = len(family.values)
            family.values.append(0.0 + amount)
        else:
            family.values[pos] += amount

    def increment(self, name: str, index=0) -> None:
        """Increase counter ``(name, index)`` by one event."""
        self.add(name, index, 1.0)

    def family(self, name: str) -> _Family:
        """Live handle on one family for hot writers.

        The returned object stays valid for the lifetime of the bank —
        :meth:`reset` swaps each family's internals rather than the
        family object — so callers may resolve it once (e.g. at machine
        construction) and call ``handle.add(index, amount)`` per event,
        skipping the per-call name lookup.  Creating the handle does not
        create any counter slot, so first-write slot order (and with it
        the bit-exact ``total()`` summation order) is unchanged.
        """
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family()
        return family

    def get(self, name: str, index=0) -> float:
        """Current cumulative value of one counter."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        pos = family.slots.get(index)
        return 0.0 if pos is None else family.values[pos]

    def slot(self, name: str, index) -> int:
        """Stable slot of ``(name, index)`` in the family array.

        Creates the counter (at 0.0) on first use, so hot readers such as
        the load sampler can resolve indices once and then read
        :meth:`family_values` positionally every tick.
        """
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family()
        pos = family.slots.get(index)
        if pos is None:
            pos = family.slots[index] = len(family.values)
            family.values.append(0.0)
        return pos

    def family_values(self, name: str) -> array:
        """The live packed value array of one family (read-only use).

        Positions follow :meth:`slot`; the array object is reallocated
        only by :meth:`reset`, though appends may move its buffer —
        re-fetch per batch rather than caching numpy views across adds.
        """
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family()
        return family.values

    def family_slots(self, name: str) -> dict:
        """Index -> slot map of one family (empty if unwritten)."""
        family = self._families.get(name)
        return {} if family is None else family.slots

    def total(self, name: str) -> float:
        """Sum of one counter family across all indices.

        O(family), not O(all counters): ``sum`` over the packed array
        adds left-to-right in slot (= insertion) order, bit-identical to
        the flat-dict scan this layout replaced.
        """
        family = self._families.get(name)
        if family is None:
            return 0.0
        return sum(family.values)

    def by_index(self, name: str) -> dict:
        """Family values keyed by index (e.g. per-socket L3 misses)."""
        family = self._families.get(name)
        if family is None:
            return {}
        values = family.values
        return {i: values[p] for i, p in family.slots.items()}

    def snapshot(self, time: float) -> CounterSnapshot:
        """Copy all counters for windowed-rate computation.

        One C-level array copy per family; slot maps are aliased (they
        only grow, and :class:`CounterSnapshot` treats out-of-range
        slots as born-later counters).
        """
        return CounterSnapshot(
            time, {name: (family.slots, family.values[:])
                   for name, family in self._families.items()})

    def reset(self) -> None:
        """Zero every counter (used between experiment repetitions).

        Families are emptied by swapping in fresh internals: the
        ``_Family`` objects themselves survive, keeping
        :meth:`family` handles valid, while snapshots taken before the
        reset keep their aliased (old) slot maps intact.
        """
        for family in self._families.values():
            family.slots = {}
            family.values = array("d")
