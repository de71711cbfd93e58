"""Simulated threads and the work-source protocol they consume from.

A :class:`SimThread` models one DBMS worker (or one pthread of the hand-coded
microbenchmark).  Threads do not carry code; they pull resumable
:class:`~repro.opsys.workitem.WorkItem` objects from a :class:`WorkSource`
and the scheduler executes those items in quantum-sized chunks.

Threads also accumulate the per-node page-residency histogram that the
paper's adaptive mode reads through its priority queue (§IV-B2): every
first-touch and remote-touch performed on behalf of the thread is counted
into :attr:`SimThread.pages_by_node`.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import Protocol

from ..errors import SchedulerError
from .inventory import DEFAULT_TENANT
from .workitem import WorkItem


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class WorkSource(Protocol):
    """Where a thread gets its next work item.

    ``next_item`` returns ``None`` when nothing is available right now; the
    scheduler then exits the thread if ``finished`` is true, otherwise blocks
    it after calling ``register_waiter`` (the source must wake it through the
    scheduler when work appears).
    """

    def next_item(self, thread: "SimThread") -> WorkItem | None: ...

    @property
    def finished(self) -> bool: ...

    def register_waiter(self, thread: "SimThread") -> None: ...


class SimThread:
    """One schedulable worker."""

    def __init__(self, source: WorkSource, tid: int, name: str = "",
                 pinned_core: int | None = None,
                 pinned_node: int | None = None,
                 managed: bool = True,
                 on_exit: Callable[["SimThread"], None] | None = None,
                 tenant: str = DEFAULT_TENANT):
        #: id unique within the owning system (its spawn order)
        self.tid = tid
        self.name = name or f"T{self.tid}"
        self.source = source
        self.pinned_core = pinned_core
        #: soft NUMA affinity: float among the node's cores (SQLOS style)
        self.pinned_node = pinned_node
        #: managed threads live inside the database cgroup and obey the
        #: elastic mechanism's cpuset; unmanaged threads (other
        #: applications sharing the machine, the paper's mixed OLAP/OLTP
        #: future-work scenario) may run on any core
        self.managed = managed
        #: which tenant's cgroup (cpuset) confines the thread; only
        #: meaningful for managed threads
        self.tenant = tenant
        self.on_exit = on_exit
        self.state = ThreadState.NEW
        #: core currently hosting the thread (queue or execution)
        self.core: int | None = None
        self.current_item: WorkItem | None = None
        #: address-space residency histogram, node -> page count
        self.pages_by_node: dict[int, int] = {}
        #: one-shot stall charged at the next chunk (migration cost)
        self.pending_stall = 0.0
        #: last core a PlacementRecord was emitted for (trace dedup)
        self._last_placed_core: int | None = None

    def note_pages(self, node: int, count: int) -> None:
        """Record that ``count`` pages of this thread's footprint live on
        ``node`` (fed by the VM layer; consumed by the adaptive mode)."""
        self.pages_by_node[node] = self.pages_by_node.get(node, 0) + count

    def acquire_item(self) -> WorkItem | None:
        """Return the in-progress item or pull a fresh one from the source."""
        if self.current_item is not None and not self.current_item.done:
            return self.current_item
        self.current_item = self.source.next_item(self)
        return self.current_item

    def require_state(self, *allowed: ThreadState) -> None:
        """Assert the thread is in one of ``allowed`` states."""
        if self.state not in allowed:
            raise SchedulerError(
                f"{self.name} in state {self.state.value}, "
                f"expected one of {[s.value for s in allowed]}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimThread {self.name} state={self.state.value} "
                f"core={self.core}>")
