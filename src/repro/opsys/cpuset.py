"""Cpuset masks: the cgroups facility through which cores are handed out.

The elastic mechanism never talks to the scheduler directly; it edits a
:class:`CpuSet` (allocate core / release core) and the scheduler honours the
mask — exactly the paper's division of labour where the prototype drives
cgroups/cpuset and the unmodified OS does the thread mapping (§IV-A, Fig 1).

Listeners (the scheduler) are notified after every change so queued threads
can be evicted from released cores.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..errors import AllocationError


class CpuSet:
    """A mutable set of allowed core ids with change notification.

    Masks change rarely (controller ticks) but are *read* on every
    placement and balancing decision, so the set is shadowed by an int
    bitmask and a cached sorted tuple: membership is one bit test and
    ordered iteration allocates nothing.  Both caches are rebuilt only
    when the mask actually changes.
    """

    def __init__(self, n_cores: int, initial: Iterable[int] | None = None):
        if n_cores < 1:
            raise AllocationError("a cpuset needs at least one core")
        self.n_cores = n_cores
        if initial is None:
            allowed = set(range(n_cores))
        else:
            allowed = set(initial)
        self._check_cores(allowed)
        if not allowed:
            raise AllocationError("initial mask cannot be empty")
        self._allowed = allowed
        self._rebuild_caches()
        self._listeners: list[Callable[[set[int], set[int]], None]] = []

    def _rebuild_caches(self) -> None:
        self._sorted: tuple[int, ...] = tuple(sorted(self._allowed))
        self._mask = 0
        for core in self._sorted:
            self._mask |= 1 << core

    def _check_cores(self, cores: Iterable[int]) -> None:
        for core in cores:
            if not 0 <= core < self.n_cores:
                raise AllocationError(f"core {core} out of range")

    def subscribe(self,
                  listener: Callable[[set[int], set[int]], None]) -> None:
        """Register ``listener(added, removed)`` for mask changes."""
        self._listeners.append(listener)

    def _notify(self, added: set[int], removed: set[int]) -> None:
        if not added and not removed:
            return
        for listener in self._listeners:
            listener(added, removed)

    def is_allowed(self, core: int) -> bool:
        """Whether ``core`` is currently exposed to the OS."""
        return bool(self._mask >> core & 1)

    def allowed(self) -> frozenset[int]:
        """The current mask."""
        return frozenset(self._allowed)

    def allowed_tuple(self) -> tuple[int, ...]:
        """The current mask, sorted, as a shared immutable tuple.

        This is the zero-allocation read path: the tuple is rebuilt only
        on mask changes, so hot callers may iterate it directly (but must
        not hold it across a mask change they care about).
        """
        return self._sorted

    def allowed_sorted(self) -> list[int]:
        """The current mask as a sorted list (stable iteration order)."""
        return list(self._sorted)

    def __len__(self) -> int:
        return len(self._allowed)

    def __contains__(self, core: int) -> bool:
        return core in self._allowed

    def allow(self, core: int) -> None:
        """Add one core to the mask (mechanism 'allocates' it)."""
        self._check_cores((core,))
        if core in self._allowed:
            raise AllocationError(f"core {core} is already allocated")
        self._allowed.add(core)
        self._rebuild_caches()
        self._notify({core}, set())

    def disallow(self, core: int) -> None:
        """Remove one core from the mask (mechanism 'releases' it)."""
        if core not in self._allowed:
            raise AllocationError(f"core {core} is not allocated")
        if len(self._allowed) == 1:
            raise AllocationError("cannot release the last core")
        self._allowed.discard(core)
        self._rebuild_caches()
        self._notify(set(), {core})

    def set_mask(self, cores: Iterable[int]) -> None:
        """Replace the whole mask atomically."""
        new = set(cores)
        self._check_cores(new)
        if not new:
            raise AllocationError("mask cannot be empty")
        added = new - self._allowed
        removed = self._allowed - new
        self._allowed = new
        self._rebuild_caches()
        self._notify(added, removed)
