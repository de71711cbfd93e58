"""Per-node memory banks and the global page space.

Pages are identified by dense global integers handed out by
:meth:`MemorySystem.allocate`.  A page has no *home node* until it is
**placed** — placement is the hardware half of the OS first-touch policy
(:mod:`repro.opsys.vm` decides *where*, this module records it and tracks
bank occupancy).

The home map is a dense ``array('h')`` indexed by page id (pages are
dense by construction), with :data:`UNPLACED` as the sentinel.  Batch
operations on contiguous page ranges — the common case, since
allocations are ranges — run as slice stores and one-``bytes``
uniformity probes, while per-page reads stay plain C-speed integer
indexing (a numpy home map would make every scalar probe in the touch
hot loops allocate a numpy scalar, several times the cost of the
lookup itself), and a snapshot pickles one buffer instead of one dict
entry per page.

The per-node byte counters written during accesses (``imc_bytes``) live in
the shared :class:`~repro.hardware.counters.CounterBank`, wired in by
:class:`~repro.hardware.machine.Machine`.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence

from ..errors import HardwareError
from ..pages import page_runs
from .topology import Topology

UNPLACED = -1

#: initial home-map capacity in pages; grown by doubling on allocate
_INITIAL_CAPACITY = 1024

#: one :data:`UNPLACED` cell in the home map's native byte order; what
#: an unplaced run looks like through ``tobytes()``
UNPLACED_PATTERN = array("h", [UNPLACED]).tobytes()


def home_run(node: int, n: int) -> array:
    """An ``array('h')`` of ``n`` cells all set to ``node`` (slice fill)."""
    return array("h", [node]) * n


class MemorySystem:
    """Page-space bookkeeping for every memory bank of the machine."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.page_bytes = topology.config.page_bytes
        self.bank_pages = topology.config.dram_bytes // self.page_bytes
        self._next_page = 0
        #: home node per page id, :data:`UNPLACED` until first touch;
        #: sized to capacity, valid through ``_next_page``
        self._home = home_run(UNPLACED, _INITIAL_CAPACITY)
        self._pages_per_node = [0] * topology.n_sockets

    def allocate(self, n_pages: int) -> range:
        """Reserve ``n_pages`` fresh, unplaced page ids."""
        if n_pages < 0:
            raise HardwareError("cannot allocate a negative page count")
        start = self._next_page
        self._next_page += n_pages
        if self._next_page > len(self._home):
            capacity = len(self._home)
            while capacity < self._next_page:
                capacity *= 2
            self._home.extend(
                home_run(UNPLACED, capacity - len(self._home)))
        return range(start, self._next_page)

    def allocate_bytes(self, n_bytes: int) -> range:
        """Reserve enough pages to hold ``n_bytes``."""
        n_pages = -(-max(n_bytes, 0) // self.page_bytes)
        return self.allocate(n_pages)

    def is_allocated(self, page: int) -> bool:
        """Whether ``page`` was ever handed out by :meth:`allocate`."""
        return 0 <= page < self._next_page

    def place(self, page: int, node: int) -> None:
        """Assign ``page`` a home node (first touch).  Idempotent-checked."""
        if not self.is_allocated(page):
            raise HardwareError(f"page {page} was never allocated")
        if self._home[page] != UNPLACED:
            raise HardwareError(f"page {page} already placed")
        if not 0 <= node < self.topology.n_sockets:
            raise HardwareError(f"node {node} out of range")
        if self._pages_per_node[node] >= self.bank_pages:
            raise HardwareError(f"memory bank of node {node} is full")
        self._home[page] = node
        self._pages_per_node[node] += 1

    def place_batch(self, pages: Sequence[int], node: int) -> None:
        """Assign every page in ``pages`` a home node in one pass.

        The bulk first-touch path: a whole batch of fresh pages lands on
        one node, so the node-range and bank-capacity checks run once for
        the batch instead of once per page (a bad batch therefore raises
        *before* any page is placed).  The per-page allocation and
        double-placement checks of :meth:`place` still apply; duplicates
        inside ``pages`` are rejected as double placements.  A contiguous
        ascending range places as one array-slice store.
        """
        if not 0 <= node < self.topology.n_sockets:
            raise HardwareError(f"node {node} out of range")
        if self._pages_per_node[node] + len(pages) > self.bank_pages:
            raise HardwareError(f"memory bank of node {node} is full")
        home = self._home
        next_page = self._next_page
        if (type(pages) is range and pages.step == 1
                and 0 <= pages.start and pages.stop <= next_page):
            n = pages.stop - pages.start
            span_bytes = home[pages.start:pages.stop].tobytes()
            if span_bytes == UNPLACED_PATTERN * n:
                home[pages.start:pages.stop] = home_run(node, n)
                self._pages_per_node[node] += n
                return
            # a page in the range is already placed: fall through to the
            # per-page loop, which lands the prefix then aborts exactly
            # as per-page placement would
        placed = 0
        try:
            for page in pages:
                if not 0 <= page < next_page:
                    raise HardwareError(
                        f"page {page} was never allocated")
                if home[page] != UNPLACED:
                    raise HardwareError(f"page {page} already placed")
                home[page] = node
                placed += 1
        finally:
            # a bad page aborts the batch mid-way (same as per-page
            # placement would); the occupancy count must still cover
            # what did land
            self._pages_per_node[node] += placed

    def home(self, page: int) -> int:
        """Home node of ``page``, or :data:`UNPLACED` when not yet touched."""
        if not 0 <= page < self._next_page:
            return UNPLACED
        return self._home[page]

    def home_runs(self, start: int, stop: int) -> list[tuple[int, int, int]]:
        """Allocated pages ``start .. stop - 1`` split into maximal
        same-home sub-runs, as ``(lo, hi, home)`` triples in page order.

        A uniform span costs one ``bytes`` comparison; a mixed one finds
        each boundary by galloping over the same comparison, which is
        monotone in the prefix length.
        """
        home = self._home
        span = home[start:stop].tobytes()
        n = stop - start
        if span == span[:2] * n:
            return [(start, stop, home[start])] if n > 0 else []
        runs = []
        i = 0
        while i < n:
            cell = span[2 * i:2 * i + 2]
            # cells [i, lo) share ``cell``; the sub-run ends in [lo, hi]
            lo, hi, step = i + 1, n, 1
            while lo < hi:
                mid = lo + step if lo + step < hi else hi
                if span[2 * i:2 * mid] == cell * (mid - i):
                    lo = mid
                    step *= 2
                else:
                    hi = mid - 1
                    step = 1
            runs.append((start + i, start + lo, home[start + i]))
            i = lo
        return runs

    def is_placed(self, page: int) -> bool:
        """Whether ``page`` already has a home node."""
        return (0 <= page < self._next_page
                and self._home[page] != UNPLACED)

    def free(self, pages: Iterable[int]) -> None:
        """Return pages to the system (intermediates being dropped).

        Each run of ``pages`` releases one block per same-home sub-run;
        never-allocated and unplaced pages are skipped.
        """
        home = self._home
        next_page = self._next_page
        per_node = self._pages_per_node
        for run in page_runs(pages):
            start = run.start if run.start > 0 else 0
            stop = run.stop if run.stop < next_page else next_page
            if start >= stop:
                continue
            for lo, hi, node in self.home_runs(start, stop):
                if node != UNPLACED:
                    per_node[node] -= hi - lo
                    home[lo:hi] = home_run(UNPLACED, hi - lo)

    def placement_histogram(self) -> list[int]:
        """Placed page counts per node, indexed by node id."""
        return list(self._pages_per_node)

    def placed_total(self) -> int:
        """Number of pages currently holding a home node."""
        span = self._home[:self._next_page]
        return len(span) - span.count(UNPLACED)
