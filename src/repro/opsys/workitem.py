"""Work items: the unit of database work a thread executes.

A :class:`WorkItem` is one operator partition — e.g. "thetasubselect over
pages 120..143 of ``l_quantity``".  It carries:

* ``reads``: the input page footprint, streamed in order;
* ``writes``: output pages to materialise (first-touched on the node of the
  core that executes them — this is how intermediates end up scattered or
  clustered depending on thread placement);
* ``cycles``: total compute cost, spread uniformly across pages (plus an
  optional fixed startup cost).

Both footprints are held as page runs, grouped once at construction,
so every execution slice hands the VM a ``range`` or a
:class:`~repro.pages.PageSegments` rather than a page list to regroup.

Items are resumable: the scheduler executes them in quantum-sized chunks and
tracks progress inside the item.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from ..errors import SchedulerError
from ..pages import PageSegments, page_runs


def _as_runs(pages: Sequence[int]) -> Sequence[int]:
    """``pages`` as page runs: the same pages in the same order.

    A step-1 ``range`` or a :class:`PageSegments` is returned as is;
    any other sequence is grouped once (:func:`repro.pages.page_runs`)
    into one run or a :class:`PageSegments` of runs, whose slices stay
    runs.
    """
    kind = type(pages)
    if (kind is range and pages.step == 1) or kind is PageSegments:
        return pages
    runs = page_runs(pages)
    if len(runs) == 1:
        return runs[0]
    return PageSegments(runs) if runs else range(0)


class WorkItem:
    """A resumable operator partition."""

    __slots__ = (
        "label", "reads", "writes", "cycles", "fixed_cycles", "query_name",
        "on_complete", "_read_pos", "_write_pos", "_cycles_done",
        "started_at", "_total_pages", "_total_cycles",
    )

    def __init__(self, label: str,
                 reads: Sequence[int] = (),
                 writes: Sequence[int] = (),
                 cycles: float = 0.0,
                 fixed_cycles: float = 0.0,
                 query_name: str = "",
                 on_complete: Callable[["WorkItem"], None] | None = None):
        if cycles < 0 or fixed_cycles < 0:
            raise SchedulerError("work cycles cannot be negative")
        self.label = label
        self.reads = _as_runs(reads)
        self.writes = _as_runs(writes)
        self.cycles = float(cycles)
        self.fixed_cycles = float(fixed_cycles)
        self.query_name = query_name
        self.on_complete = on_complete
        self._read_pos = 0
        self._write_pos = 0
        self._cycles_done = 0.0
        # page footprint and cycle budget are fixed at construction; the
        # scheduler polls the remaining pages every execution slice, so
        # both totals are cached rather than recomputed per poll
        self._total_pages = len(reads) + len(writes)
        self._total_cycles = self.cycles + self.fixed_cycles
        #: set by the scheduler on first dispatch (for Tomograph records)
        self.started_at: float | None = None

    @property
    def done(self) -> bool:
        """Whether the item has fully executed."""
        return (self._total_pages - self._read_pos - self._write_pos == 0
                and self._total_cycles - self._cycles_done <= 1e-6)

    def take_reads(self, n: int) -> Sequence[int]:
        """Consume up to ``n`` unread input pages."""
        start = self._read_pos
        end = min(start + n, len(self.reads))
        self._read_pos = end
        return self.reads[start:end]

    def take_writes(self, n: int) -> Sequence[int]:
        """Consume up to ``n`` unwritten output pages."""
        start = self._write_pos
        end = min(start + n, len(self.writes))
        self._write_pos = end
        return self.writes[start:end]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WorkItem {self.label!r} pages={self._total_pages} "
                f"remaining="
                f"{self._total_pages - self._read_pos - self._write_pos}>")


class ListWorkSource:
    """The simplest work source: a fixed queue of items per consumer.

    Used by the microbenchmark (each pthread owns its slice) and by unit
    tests.  The Volcano executor uses the richer staged source in
    :mod:`repro.db.volcano`.
    """

    def __init__(self, items: Sequence[WorkItem] = ()):
        self._queue: deque[WorkItem] = deque(items)

    def next_item(self, thread) -> WorkItem | None:
        """Hand the next item to ``thread`` (thread identity is ignored)."""
        if self._queue:
            return self._queue.popleft()
        return None

    @property
    def finished(self) -> bool:
        """A list source is finished as soon as it is empty."""
        return not self._queue

    def register_waiter(self, thread) -> None:
        """List sources never block consumers; registering is an error."""
        raise SchedulerError(
            "ListWorkSource is exhausted; thread should exit, not wait")
