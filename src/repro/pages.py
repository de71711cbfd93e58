"""Page-footprint sequences shared by the DB, OS and hardware layers.

:class:`PageSegments` lives in its own dependency-free module because it
is the *interface type* between layers: query compilation
(:mod:`repro.db.cost`) produces it, work items carry it, and both the
virtual-memory layer and the machine's cache model consume footprints
as page runs through :func:`page_runs`.  Placing it under
:mod:`repro.opsys` or :mod:`repro.db` would force the hardware layer to
import upward.
"""

from __future__ import annotations

from .errors import SchedulerError


def page_runs(pages) -> list[range]:
    """``pages`` as maximal ascending contiguous runs, in footprint order.

    The one shape every touch path consumes: a step-1 ``range`` is its
    own run, a :class:`PageSegments` contributes its segments, and any
    other sequence (page lists with gaps, duplicates or descending ids)
    is grouped in one pass.  Streaming the runs in order touches exactly
    the pages of ``pages`` in the same order.
    """
    kind = type(pages)
    if kind is range and pages.step == 1:
        return [pages] if pages.start < pages.stop else []
    if kind is PageSegments:
        runs: list[range] = []
        for segment in pages._segments:
            if type(segment) is range and segment.step == 1:
                if segment.start < segment.stop:
                    runs.append(segment)
            else:
                runs += page_runs(segment)
        return runs
    runs = []
    it = iter(pages)
    for start in it:  # runs once: the inner loop drains ``it``
        prev = start
        for page in it:
            if page != prev + 1:
                runs.append(range(start, prev + 1))
                start = page
            prev = page
        runs.append(range(start, prev + 1))
    return runs


class PageSegments:
    """A read-only concatenation of contiguous page runs.

    Query compilation produces page footprints that are concatenations
    of a few contiguous ranges (base-column slices, consumed
    intermediates, shared builds).  Materialising them into one flat
    list would destroy the contiguity the VM and cache layers exploit —
    this sequence keeps the runs, and a slice that falls inside a single
    run comes back as a native :class:`range` (a single run).
    Slices crossing run boundaries come back as another
    :class:`PageSegments` holding the sub-runs, preserving the exact
    element order of the flat concatenation, so chunked execution
    (:meth:`repro.opsys.workitem.WorkItem.take_reads`) never degrades a
    footprint into per-page work.
    """

    __slots__ = ("_segments", "_starts", "_len")

    def __init__(self, segments):
        self._segments = list(segments)
        starts = []
        total = 0
        for segment in self._segments:
            starts.append(total)
            total += len(segment)
        self._starts = starts
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for segment in self._segments:
            yield from segment

    def _locate(self, offset: int) -> int:
        """Index of the segment containing flat position ``offset``."""
        starts = self._starts
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if step != 1:
                raise SchedulerError("page runs slice with step 1 only")
            if start >= stop:
                return range(0)
            seg_idx = self._locate(start)
            base = self._starts[seg_idx]
            segment = self._segments[seg_idx]
            if stop - base <= len(segment):
                return segment[start - base:stop - base]
            # boundary-crossing slice: keep the runs (slicing a range
            # yields a range), same element order as the equivalent
            # slice of the concatenated list
            head = segment[start - base:]
            runs = [head]
            taken = len(head)
            want = stop - start
            for nxt in self._segments[seg_idx + 1:]:
                missing = want - taken
                if missing <= 0:
                    break
                run = nxt[:missing] if missing < len(nxt) else nxt
                runs.append(run)
                taken += len(run)
            return PageSegments(runs)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("page index out of range")
        seg_idx = self._locate(index)
        return self._segments[seg_idx][index - self._starts[seg_idx]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PageSegments {self._segments!r}>"
