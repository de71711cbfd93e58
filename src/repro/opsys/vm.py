"""Virtual-memory layer: first-touch placement and minor-fault accounting.

The paper leans on two kernel behaviours (§II-A/B):

* **first touch** — the node-local policy places a page on the node of the
  core that touches it first, raising a *minor page fault*;
* **remote access** — when a thread on a *different* node later maps the same
  page, another minor fault is raised and the data moves over the
  interconnect; the paper uses the minor-fault rate as its data-movement
  signal (Fig 4b).

This module implements both, and feeds each thread's per-node residency
histogram (the adaptive mode's raw material).

The per-page "which nodes mapped this" state is a dense ``bytearray``
bitmask indexed by page id (bit ``n`` = node ``n``), mirroring the dense
home map in :mod:`repro.hardware.memory`.  The hot
:meth:`VirtualMemory.touch_pages` call — one per execution chunk —
takes any footprint as page runs (:func:`repro.pages.page_runs`) and
each run as same-home sub-runs: fault detection is one
``bytes.translate`` + ``count`` over the bitmask slice, and placement
and the residency histogram resolve per sub-run in O(1).  The resulting
placement split can be handed to :meth:`repro.hardware.machine.Machine.touch`
(``placed=``), which then streams the same runs without regrouping them.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import HardwareError
from ..hardware.machine import Machine
from ..hardware.memory import UNPLACED, home_run
from ..pages import page_runs
from .thread import SimThread

#: byte-translation tables per node id (the bitmask holds eight nodes):
#: ``_SEEN[n]`` maps a bitmask byte to 1 when node ``n``'s bit is set, so
#: translate+count counts already-mapped pages in C; ``_SET[n]`` maps it
#: to the same byte with node ``n``'s bit ored in
_SEEN = tuple(bytes(b >> n & 1 for b in range(256)) for n in range(8))
_SET = tuple(bytes(b | 1 << n for b in range(256)) for n in range(8))


class VirtualMemory:
    """First-touch policy and fault counters on top of the machine.

    When ``numa_balancing`` is enabled (Linux AutoNUMA), pages that are
    accessed from the same remote node several batches in a row are
    migrated to that node; the mover pays the interconnect transfer and
    a kernel cost, and the page's old cache residency is invalidated.
    """

    def __init__(self, machine: Machine, numa_balancing: bool = False,
                 migration_streak: int = 3):
        n_nodes = machine.topology.n_sockets
        if n_nodes > len(_SEEN):
            raise HardwareError(
                f"{n_nodes} nodes exceed the mapping bitmask's "
                f"{len(_SEEN)}")
        self.machine = machine
        self._n_nodes = n_nodes
        self.counters = machine.counters
        self._f_minor = machine.counters.family("minor_faults")
        self.numa_balancing = numa_balancing
        self.migration_streak = migration_streak
        # page -> bitmask of nodes that have already mapped it, dense
        # by page id (grown on demand to cover the allocated space)
        self._mapped = bytearray(1024)
        # AutoNUMA bookkeeping: page -> (last remote accessor, streak)
        self._remote_streak: dict[int, tuple[int, int]] = {}

    def _mapped_span(self, stop: int) -> bytearray:
        """The mapping bitmask, grown to cover page ids below ``stop``."""
        mapped = self._mapped
        if stop > len(mapped):
            capacity = len(mapped)
            while capacity < stop:
                capacity *= 2
            mapped.extend(bytes(capacity - len(mapped)))
        return mapped

    def touch_pages(self, pages: Sequence[int], node: int,
                    thread: SimThread | None = None, *,
                    placed: list | None = None) -> int:
        """Prepare ``pages`` for access from ``node``.

        Unplaced pages are first-touched (placed on ``node``); already-placed
        pages seen from a new node raise a remote-access minor fault.  The
        number of minor faults raised is returned and counted per node.
        A bad node, a never-allocated page or a full memory bank raises
        before any mapping, placement or counter changes.

        A ``placed`` list receives the footprint's placement split as it
        stands after the call: one ``(run, [(lo, hi, home), ...])`` pair
        per page run, the form :meth:`Machine.touch` takes as its own
        ``placed`` so it need not regroup and re-split the same pages.
        With ``numa_balancing`` on, pages may migrate after mapping, so
        the split is only valid until the next migration.
        """
        memory = self.machine.memory
        runs = page_runs(pages)
        per_node = memory._pages_per_node
        # the common case passes three cheap tests; _check repeats them
        # to name the fault or to count the fresh pages exactly
        ok = (0 <= node < self._n_nodes
              and per_node[node] + len(pages) <= memory.bank_pages)
        if ok:
            next_page = memory._next_page
            for run in runs:
                if run.start < 0 or run.stop > next_page:
                    ok = False
                    break
        if not ok:
            self._check(runs, len(pages), node, memory)
        seen_tbl = _SEEN[node]
        set_tbl = _SET[node]
        home_arr = memory._home
        mapped = self._mapped
        by_node = thread.pages_by_node if thread is not None else None
        faults = 0
        for run in runs:
            if run.stop > len(mapped):
                mapped = self._mapped_span(run.stop)
            split = memory.home_runs(run.start, run.stop)
            for i, (lo, hi, home) in enumerate(split):
                n = hi - lo
                if home == UNPLACED:
                    home_arr[lo:hi] = home_run(node, n)
                    per_node[node] += n
                    home = node
                    split[i] = (lo, hi, node)
                segment = bytes(mapped[lo:hi])
                missing = n - segment.translate(seen_tbl).count(1)
                if missing:
                    mapped[lo:hi] = segment.translate(set_tbl)
                    faults += missing
                if by_node is not None:
                    # SimThread.note_pages, inlined
                    by_node[home] = by_node.get(home, 0) + n
            if placed is not None:
                placed.append((run, split))
        if faults:
            self._f_minor[node] += faults
        if self.numa_balancing:
            self._autonuma(pages, node)
        return faults

    def _check(self, runs: list[range], n_pages: int, node: int,
               memory) -> None:
        """Reject a touch that would fail part-way through."""
        if not 0 <= node < self._n_nodes:
            raise HardwareError(f"node {node} out of range")
        next_page = memory._next_page
        for run in runs:
            if run.start < 0 or run.stop > next_page:
                page = (run.start if run.start < 0
                        else max(run.start, next_page))
                raise HardwareError(f"page {page} was never allocated")
        if memory._pages_per_node[node] + n_pages > memory.bank_pages:
            # only unplaced pages land on the bank, each once: count
            # them per same-home sub-run of the runs' union
            fresh = 0
            stop = -1
            for run in sorted(runs, key=lambda r: r.start):
                lo = run.start if run.start > stop else stop
                if run.stop > lo:
                    fresh += sum(b - a for a, b, home
                                 in memory.home_runs(lo, run.stop)
                                 if home == UNPLACED)
                    stop = run.stop
            if memory._pages_per_node[node] + fresh > memory.bank_pages:
                raise HardwareError(f"memory bank of node {node} is full")

    def _autonuma(self, pages: Sequence[int], node: int) -> None:
        """AutoNUMA: migrate pages hot on a remote node toward it."""
        memory = self.machine.memory
        streaks = self._remote_streak
        for page in pages:
            home = memory.home(page)
            if home == node:
                streaks.pop(page, None)
                continue
            last, streak = streaks.get(page, (node, 0))
            streak = streak + 1 if last == node else 1
            if streak >= self.migration_streak:
                self.migrate_page(page, node)
                streaks.pop(page, None)
            else:
                streaks[page] = (node, streak)

    def migrate_page(self, page: int, node: int) -> None:
        """Move one page to ``node``: re-home it, invalidate caches,
        count the traffic and the migration."""
        memory = self.machine.memory
        old_home = memory.home(page)
        if old_home == node:
            return
        memory.free([page])
        memory.place(page, node)
        # the page's contents cross the fabric once (the kernel moves it
        # in the background, so no requester stall is charged)
        self.counters.add("ht_tx_bytes", old_home, memory.page_bytes)
        for cache in self.machine.caches:
            cache.invalidate([page])
        self.counters.increment("numa_page_migrations", node)
        # remote mappings are stale after the move
        self._mapped_span(page + 1)[page] = 1 << node

    def forget(self, pages: Sequence[int]) -> None:
        """Drop mapping state and free the pages (intermediates released)."""
        mapped = self._mapped
        for run in page_runs(pages):
            begin = max(run.start, 0)
            stop = min(run.stop, len(mapped))
            if begin < stop:
                mapped[begin:stop] = bytes(stop - begin)
            self.machine.memory.free(run)
