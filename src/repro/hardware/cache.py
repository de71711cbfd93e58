"""Per-socket shared last-level cache, modelled at page granularity.

The paper's locality effects all flow through the L3: threads that stay on
one socket keep their working set resident; threads migrated by the OS load
balancer arrive at a socket whose L3 does not hold their pages and must pull
everything over the interconnect again (§II-B2, §V-A1).  A page-granular LRU
reproduces exactly that behaviour without simulating cache lines.

Residency is run-length encoded: an ordered list of disjoint page
``range`` runs, coldest first, where the pages inside one run are in
recency order by ascending id.  Work streams contiguous page runs, so a
whole run resolves in a few list operations — :meth:`SharedCache.resolve`
appends a miss block at the back and trims the front, or moves a
resident block to the back — with exactly the per-page LRU outcome of
touching its pages one by one.  The list never holds more runs than the
capacity has pages.

Private L1/L2 effects are folded into the operators' cycles-per-byte
constants (see :mod:`repro.db.cost`); only the shared L3 is stateful.
"""

from __future__ import annotations

from ..errors import HardwareError
from ..pages import page_runs


class SharedCache:
    """An LRU set of resident page ids with a fixed page capacity."""

    def __init__(self, capacity_pages: int, socket_id: int = 0):
        if capacity_pages < 1:
            raise HardwareError("cache capacity must be at least one page")
        self.capacity_pages = capacity_pages
        self.socket_id = socket_id
        #: disjoint resident runs, coldest first
        self._runs: list[range] = []
        #: resident pages, the total length of ``_runs``
        self._size = 0

    def __contains__(self, page: int) -> bool:
        return any(page in run for run in self._runs)

    def __len__(self) -> int:
        return self._size

    def resolve(self, lo: int, hi: int) -> list[range]:
        """Touch pages ``lo .. hi - 1`` in ascending order.

        The outcome is that of :meth:`access` page by page: a block of
        non-resident pages is appended at the back and the coldest pages
        beyond capacity are evicted from the front; a block of resident
        pages moves to the back as hits; a page evicted by earlier misses
        of the same call misses when its turn comes.  Returns the maximal
        missed sub-runs in order.
        """
        runs = self._runs
        capacity = self.capacity_pages
        size = self._size
        missed: list[range] = []
        pos = lo
        while pos < hi:
            # the lowest resident page in [pos, hi), and its run
            nxt = hi
            at = -1
            for i, run in enumerate(runs):
                start = run.start
                if start < nxt and run.stop > pos:
                    at = i
                    if start <= pos:
                        nxt = pos
                        break
                    nxt = start
            if nxt > pos:
                if missed and missed[-1].stop == pos:
                    # ``pos`` was evicted by this call's earlier misses
                    missed[-1] = range(missed[-1].start, nxt)
                else:
                    missed.append(range(pos, nxt))
                end = nxt
            else:
                run = runs[at]
                end = run.stop if run.stop < hi else hi
                pieces = []
                if run.start < pos:
                    pieces.append(range(run.start, pos))
                if end < run.stop:
                    pieces.append(range(end, run.stop))
                runs[at:at + 1] = pieces
                size -= end - pos
            # pages ``pos .. end - 1`` are absent now: insert them as the
            # hottest and evict the coldest pages beyond capacity
            if runs and runs[-1].stop == pos:
                runs[-1] = range(runs[-1].start, end)
            else:
                runs.append(range(pos, end))
            size += end - pos
            over = size - capacity
            if over > 0:
                size = capacity
                k = 0
                while over >= len(runs[k]):
                    over -= len(runs[k])
                    k += 1
                del runs[:k]
                if over:
                    runs[0] = runs[0][over:]
            pos = end
        self._size = size
        return missed

    def access(self, page: int) -> bool:
        """Touch one page.  Returns ``True`` on hit, ``False`` on miss.

        A miss inserts the page, evicting the least recently used resident
        page when the cache is full.
        """
        return not self.resolve(page, page + 1)

    def invalidate(self, pages) -> int:
        """Drop specific pages (e.g. on writer invalidation); returns count."""
        return self._drop(page_runs(pages))

    def _drop(self, cuts: list[range]) -> int:
        """Remove every resident page inside ``cuts``; returns count."""
        dropped = 0
        for cut in cuts:
            lo, hi = cut.start, cut.stop
            runs = self._runs
            for run in runs:
                if run.start < hi and lo < run.stop:
                    break
            else:
                continue
            kept = []
            for run in runs:
                start, stop = run.start, run.stop
                if stop <= lo or start >= hi:
                    kept.append(run)
                    continue
                if start < lo:
                    kept.append(range(start, lo))
                if stop > hi:
                    kept.append(range(hi, stop))
                dropped += ((stop if stop < hi else hi)
                            - (start if start > lo else lo))
            self._runs = kept
        self._size -= dropped
        return dropped

    def flush(self) -> None:
        """Empty the cache."""
        self._runs.clear()
        self._size = 0

    def resident_pages(self) -> list[int]:
        """Resident page ids from coldest to hottest."""
        return [page for run in self._runs for page in run]
