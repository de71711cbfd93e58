"""Property tests: the run-wise touch paths vs per-page reference models.

:class:`repro.hardware.cache.SharedCache` keeps residency as page runs,
:meth:`repro.hardware.machine.Machine.touch` resolves and charges whole
runs, and :meth:`repro.opsys.vm.VirtualMemory.touch_pages` maps whole
same-home sub-runs.  Their contract is the per-page model, bit for bit.
The reference below is a straight reimplementation of it: a dict LRU
whose insertion order is the recency order, a touch loop that reserves
one page at a time through the general-purpose
:meth:`~repro.hardware.interconnect.FifoChannel.reserve`, and a VM loop
that maps page by page and flushes first touches through
:meth:`~repro.hardware.memory.MemorySystem.place_batch`.

The scheduler maps a slice's reads and then its writes, and hands the
VM's placement split (``placed=``) to the machine calls unless AutoNUMA
may move pages in between; a ``step`` command drives the real layers
exactly that way, with AutoNUMA off and on, against the reference.

Hypothesis drives both through the same command scripts on
``small_numa()`` machines with 1-8 page L3s and compares the complete
observable state after every step: the ``AccessResult``, resident order,
cache hit/miss/eviction counts, every bank and link reservation, every
counter family (values and slot order), the mapping bitmask, the home
map and the threads' residency histograms.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import SchedulerConfig
from repro.hardware.cache import SharedCache
from repro.hardware.machine import AccessResult, Machine
from repro.hardware.memory import UNPLACED
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.thread import SimThread
from repro.opsys.vm import VirtualMemory
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.pages import PageSegments, page_runs
from repro.units import kib


class RefCache:
    """The per-page LRU: a dict whose insertion order is recency order."""

    def __init__(self, capacity_pages: int):
        self.capacity_pages = capacity_pages
        self._resident: dict[int, None] = {}

    def access(self, page: int) -> bool:
        resident = self._resident
        if page in resident:
            del resident[page]
            resident[page] = None
            return True
        if len(resident) >= self.capacity_pages:
            del resident[next(iter(resident))]
        resident[page] = None
        return False

    def invalidate(self, pages) -> int:
        common = self._resident.keys() & set(pages)
        for page in common:
            del self._resident[page]
        return len(common)

    def flush(self) -> None:
        self._resident.clear()

    def resident_pages(self) -> list[int]:
        return list(self._resident)


def ref_touch(machine: Machine, now: float, core_id: int,
              pages) -> AccessResult:
    """The per-page touch loop over general-purpose channel reservations."""
    topology = machine.topology
    socket = topology.node_of_core(core_id)
    cache = machine.caches[socket]
    cfg = machine.config
    page_bytes = cfg.page_bytes
    link_bandwidth = machine.interconnect.link_bandwidth
    latency_per_page = (cfg.page_bytes / cfg.cache_line_bytes
                        / cfg.memory_parallelism * cfg.dram_latency)
    latency_stall = 0.0
    batch_done = now
    hits = remote_misses = bytes_local = bytes_remote = 0
    imc_pages: dict[int, int] = {}
    for page in pages:
        if cache.access(page):
            hits += 1
            continue
        home = machine.memory.home(page)
        assert home != UNPLACED
        imc_pages[home] = imc_pages.get(home, 0) + 1
        bank_done = machine.banks[home].reserve(now, page_bytes)
        if home == socket:
            bytes_local += page_bytes
            done = bank_done
            latency_stall += latency_per_page
        else:
            bytes_remote += page_bytes
            remote_misses += 1
            hops = topology.distance(home, socket)
            done = machine.interconnect.link(home, socket).reserve(
                bank_done, page_bytes)
            if hops > 1:
                done += (hops - 1) * (page_bytes / link_bandwidth)
            latency_stall += latency_per_page * (cfg.remote_penalty ** hops)
        if done > batch_done:
            batch_done = done
    misses = len(pages) - hits
    counters = machine.counters
    for home, n in imc_pages.items():
        counters.add("imc_bytes", home, n * page_bytes)
        if home != socket:
            counters.add("ht_tx_bytes", home, n * page_bytes)
    counters.add("l3_hit", socket, hits)
    counters.add("l3_miss", socket, misses)
    return AccessResult((batch_done - now) + latency_stall, hits, misses,
                        remote_misses, bytes_local, bytes_remote)


def ref_touch_write(machine: Machine, now: float, core_id: int,
                    pages) -> AccessResult:
    socket = machine.topology.node_of_core(core_id)
    for other, cache in enumerate(machine.caches):
        if other == socket or not cache._resident:
            continue
        dropped = cache.invalidate(pages)
        if dropped:
            machine.counters.add("l3_invalidations", other, dropped)
    return ref_touch(machine, now, core_id, pages)


def ref_touch_pages(vm: VirtualMemory, pages, node: int,
                    thread: SimThread) -> int:
    """Per-page mapping with first touches flushed via ``place_batch``."""
    memory = vm.machine.memory
    mapped = vm._mapped_span(max(max(pages, default=-1) + 1,
                                 memory._next_page))
    mask = 1 << node
    faults = 0
    to_place: list[int] = []
    histogram: dict[int, int] = {}
    for page in pages:
        assert memory.is_allocated(page)
        seen = mapped[page]
        if not seen & mask:
            mapped[page] = seen | mask
            faults += 1
            if memory.home(page) == UNPLACED:
                to_place.append(page)
        home = memory.home(page)
        if home == UNPLACED:
            home = node
        histogram[home] = histogram.get(home, 0) + 1
    if to_place:
        memory.place_batch(to_place, node)
    for home, count in histogram.items():
        thread.note_pages(home, count)
    if faults:
        vm.counters.add("minor_faults", node, faults)
    if vm.numa_balancing:
        # AutoNUMA is per-page code already; both sides share it
        vm._autonuma(pages, node)
    return faults


def ref_forget(vm: VirtualMemory, pages) -> None:
    mapped = vm._mapped
    for page in pages:
        if 0 <= page < len(mapped):
            mapped[page] = 0
    vm.machine.memory.free(list(pages))


# ---------------------------------------------------------------------
# footprints: abstract specs resolved against the allocated page count

_ids = st.integers(0, 200)
_lengths = st.integers(0, 14)
_footprints = st.one_of(
    st.tuples(st.just("range"), _ids, _lengths),
    st.tuples(st.just("stride"), _ids, _lengths,
              st.sampled_from((2, 3, -1, -2))),
    st.tuples(st.just("list"), st.lists(_ids, max_size=16)),
    st.tuples(st.just("segments"),
              st.lists(st.tuples(_ids, _lengths), min_size=1, max_size=4),
              st.booleans()),
)


def _footprint(spec, total: int):
    kind = spec[0]
    if kind == "range":
        start = spec[1] % total
        return range(start, min(start + spec[2], total))
    if kind == "stride":
        _, start, length, step = spec
        start %= total
        stop = start + step * length
        return range(start, max(min(stop, total), -1), step)
    if kind == "list":
        return [page % total for page in spec[1]]
    segments = []
    for start, length in spec[1]:
        start %= total
        segments.append(range(start, min(start + length, total)))
    if spec[2]:
        # a plain page list among the runs
        segments.append([page % total for page in (7, 3, 4, 5, 3)])
    return PageSegments(segments)


_dts = st.sampled_from((0.0, 1e-6, 2e-5, 1e-4))
_state_commands = (
    st.tuples(st.just("forget"), _footprints),
    st.tuples(st.just("migrate"), _ids, st.integers(0, 1)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("alloc"), st.integers(1, 12)),
    # foreign link traffic: a busy link paces the next remote run
    st.tuples(st.just("transfer"), st.integers(0, 1), st.integers(1, 6)),
)
_commands = st.lists(st.one_of(
    st.tuples(st.just("touch"), _footprints, st.integers(0, 3), _dts,
              st.booleans()),
    *_state_commands,
), max_size=30)
#: scheduler slices: reads, then writes (``None``: the reads again)
_step_commands = st.lists(st.one_of(
    st.tuples(st.just("step"), _footprints,
              st.one_of(st.none(), _footprints), st.integers(0, 3), _dts),
    *_state_commands,
), max_size=30)


def _system(l3_pages: int, slow_links: bool, reference: bool,
            streak: int = 0):
    """A machine, its VM (AutoNUMA on with a ``streak``) and 2 threads."""
    overrides = {"l3_bytes": kib(64) * l3_pages}
    if slow_links:
        # the link, not the bank, paces remote runs
        overrides["ht_link_bandwidth"] = 4e9
    machine = Machine(small_numa(**overrides))
    if reference:
        machine.caches = [RefCache(l3_pages) for _ in machine.caches]
    vm = VirtualMemory(machine, numa_balancing=streak > 0,
                       migration_streak=max(streak, 1))
    for n in (12, 20, 8):
        machine.memory.allocate(n)
    threads = [SimThread(ListWorkSource(), tid) for tid in (1, 2)]
    return machine, vm, threads


def _state(machine: Machine, vm: VirtualMemory, threads) -> tuple:
    memory = machine.memory
    top = memory._next_page
    assert not any(vm._mapped[top:])
    return (
        [cache.resident_pages() for cache in machine.caches],
        [bank._free_at for bank in machine.banks],
        [(key, link._free_at)
         for key, link in machine.interconnect._links.items()],
        [(name, list(family.items()))
         for name, family in machine.counters._families.items()],
        bytes(vm._mapped[:top]),
        list(memory._home[:top]),
        list(memory._pages_per_node),
        [list(thread.pages_by_node.items()) for thread in threads],
    )


def _split_pages(placed) -> list[tuple[int, int]]:
    """A handed-over split as (page, home) pairs in streaming order."""
    return [(page, home) for _, split in placed
            for lo, hi, home in split for page in range(lo, hi)]


def _step(machine, vm, thread, now, core, reads, writes):
    """One scheduler slice on the real layers: map the reads, then the
    writes, then stream both with the VM's split handed over (none
    while AutoNUMA may migrate pages in between)."""
    node = machine.topology.node_of_core(core)
    hand = not vm.numa_balancing
    read_split = [] if hand else None
    write_split = [] if hand else None
    faults = vm.touch_pages(reads, node, thread, placed=read_split)
    faults += vm.touch_pages(writes, node, thread, placed=write_split)
    memory = machine.memory
    results = []
    for pages, split, touch in ((reads, read_split, machine.touch),
                                (writes, write_split, machine.touch_write)):
        if not len(pages):
            continue
        if split is not None:
            # the split is the footprint's current placement, in order
            assert [run for run, _ in split] == page_runs(pages)
            assert _split_pages(split) == [(page, memory.home(page))
                                           for page in pages]
        results.append(touch(now, core, pages, placed=split))
    return faults, results


def _ref_step(machine, vm, thread, now, core, reads, writes):
    node = machine.topology.node_of_core(core)
    faults = ref_touch_pages(vm, reads, node, thread)
    faults += ref_touch_pages(vm, writes, node, thread)
    results = []
    if len(reads):
        results.append(ref_touch(machine, now, core, reads))
    if len(writes):
        results.append(ref_touch_write(machine, now, core, writes))
    return faults, results


def _replay(l3_pages: int, slow_links: bool, commands,
            streak: int = 0) -> None:
    """Run ``commands`` on both systems, comparing state after each."""
    machine, vm, threads = _system(l3_pages, slow_links, reference=False,
                                   streak=streak)
    ref_machine, ref_vm, ref_threads = _system(l3_pages, slow_links,
                                               reference=True,
                                               streak=streak)
    now = 0.0
    for command in commands:
        total = machine.memory._next_page
        kind = command[0]
        if kind == "touch":
            _, spec, core, dt, write = command
            pages = _footprint(spec, total)
            now += dt
            node = machine.topology.node_of_core(core)
            thread = threads[core % 2]
            faults = vm.touch_pages(pages, node, thread)
            ref_faults = ref_touch_pages(ref_vm, pages, node,
                                         ref_threads[core % 2])
            assert faults == ref_faults
            if write:
                result = machine.touch_write(now, core, pages)
                expected = ref_touch_write(ref_machine, now, core, pages)
            else:
                result = machine.touch(now, core, pages)
                expected = ref_touch(ref_machine, now, core, pages)
            assert result == expected
        elif kind == "step":
            _, read_spec, write_spec, core, dt = command
            reads = _footprint(read_spec, total)
            writes = (reads if write_spec is None
                      else _footprint(write_spec, total))
            now += dt
            got = _step(machine, vm, threads[core % 2], now, core,
                        reads, writes)
            assert got == _ref_step(ref_machine, ref_vm,
                                    ref_threads[core % 2], now, core,
                                    reads, writes)
        elif kind == "forget":
            pages = _footprint(command[1], total)
            vm.forget(pages)
            ref_forget(ref_vm, pages)
        elif kind == "migrate":
            page = command[1] % total
            if machine.memory.is_placed(page):
                vm.migrate_page(page, command[2])
                ref_vm.migrate_page(page, command[2])
        elif kind == "flush":
            machine.flush_caches()
            for cache in ref_machine.caches:
                cache.flush()
        elif kind == "alloc":
            machine.memory.allocate(command[1])
            ref_machine.memory.allocate(command[1])
        else:
            _, src, n = command
            for system in (machine, ref_machine):
                system.interconnect.transfer(
                    now, src, 1 - src, n * system.config.page_bytes)
        assert _state(machine, vm, threads) == _state(
            ref_machine, ref_vm, ref_threads)


@settings(max_examples=250, deadline=None)
@given(l3_pages=st.integers(1, 8), slow_links=st.booleans(),
       commands=_commands)
def test_touch_paths_match_the_per_page_model(l3_pages, slow_links,
                                               commands):
    _replay(l3_pages, slow_links, commands)


@settings(max_examples=250, deadline=None)
@given(l3_pages=st.integers(1, 8), slow_links=st.booleans(),
       streak=st.sampled_from((0, 0, 1, 2)), commands=_step_commands)
def test_handed_split_matches_the_per_page_model(l3_pages, slow_links,
                                                  streak, commands):
    """Scheduler slices (AutoNUMA off, or on with a 1- or 2-batch
    streak) with the VM's split handed to the machine."""
    _replay(l3_pages, slow_links, commands, streak)


def test_handed_split_with_overlapping_reads_and_writes():
    """Writes that re-touch the slice's reads and a list with a gap and
    duplicates: the reads' split stays current after the writes map."""
    _replay(2, False, [
        ("step", ("list", [3, 4, 9, 3, 4, 5]), ("range", 4, 8), 0, 0.0),
        ("step", ("segments", ((2, 5), (30, 2)), True), None, 2, 1e-6),
        ("forget", ("range", 3, 4)),
        ("step", ("range", 0, 12), ("list", [40, 3, 41, 3]), 3, 0.0),
    ])


def test_autonuma_migration_would_stale_a_split():
    """Why no split is handed with AutoNUMA on: the reads' own
    migrations re-home pages after the VM split them."""
    machine, vm, threads = _system(8, False, reference=False, streak=1)
    pages = range(0, 6)
    vm.touch_pages(pages, 1, threads[0])  # first touch on node 1
    placed = []
    vm.touch_pages(pages, 0, threads[0], placed=placed)
    assert _split_pages(placed) == [(page, 1) for page in pages]
    assert [machine.memory.home(page) for page in pages] == [0] * 6


def _scheduler_splits(numa_balancing: bool) -> list:
    """The ``placed`` argument of every machine call of a small run,
    checked against the home map at the call."""
    os_ = OperatingSystem(small_numa(), SchedulerConfig(
        numa_balancing=numa_balancing, numa_migration_streak=1))
    memory = os_.machine.memory
    data = memory.allocate(24)
    memory.place_batch(data, 1)
    out = memory.allocate(8)
    seen = []

    def spy(method):
        def wrapper(now, core, pages, *, placed=None):
            if placed is not None:
                assert _split_pages(placed) == [
                    (page, memory.home(page)) for page in pages]
            seen.append(placed)
            return method(now, core, pages, placed=placed)
        return wrapper

    os_.machine.touch = spy(os_.machine.touch)
    os_.machine.touch_write = spy(os_.machine.touch_write)
    items = [WorkItem("scan", reads=[*data[:12], *data[:12], 30, 2],
                      writes=out, cycles=5e6),
             WorkItem("scan", reads=PageSegments([data[12:], data[:4]]),
                      cycles=5e6)]
    for core, item in enumerate(items):
        os_.spawn_thread(ListWorkSource([item]), pinned_core=core)
    os_.run_until_idle()
    assert seen
    return seen


def test_scheduler_hands_the_current_split_unless_autonuma_is_on():
    assert all(placed is not None for placed in _scheduler_splits(False))
    assert all(placed is None for placed in _scheduler_splits(True))


def test_bank_takes_over_pacing_from_a_busy_link():
    """A remote run behind foreign link traffic: the link paces its
    first pages, then the slower bank catches up and paces the rest."""
    _replay(8, False, [
        ("touch", ("range", 0, 6), 0, 0.0, False),
        ("transfer", 0, 12),
        ("touch", ("range", 0, 6), 2, 0.0, False),
        ("touch", ("list", [9, 10, 11, 12, 2, 13]), 0, 0.0, True),
        ("transfer", 0, 12),
        ("touch", ("segments", ((9, 4), (20, 3)), False), 3, 0.0, False),
    ])


_cache_commands = st.lists(st.one_of(
    st.tuples(st.just("resolve"), st.integers(0, 30), st.integers(0, 12)),
    st.tuples(st.just("access"), st.integers(0, 30)),
    st.tuples(st.just("invalidate"), st.lists(st.integers(0, 30),
                                              max_size=10)),
    st.tuples(st.just("flush")),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), commands=_cache_commands)
def test_run_cache_matches_dict_lru(capacity, commands):
    cache = SharedCache(capacity)
    ref = RefCache(capacity)
    for command in commands:
        kind = command[0]
        if kind == "resolve":
            lo, hi = command[1], command[1] + command[2]
            missed = cache.resolve(lo, hi)
            expected = [page for page in range(lo, hi)
                        if not ref.access(page)]
            assert [page for run in missed for page in run] == expected
            # sub-runs are ascending, disjoint and non-empty
            assert all(len(run) for run in missed)
            assert all(a.stop < b.start for a, b in zip(missed,
                                                          missed[1:]))
        elif kind == "access":
            assert cache.access(command[1]) == ref.access(command[1])
        elif kind == "invalidate":
            assert cache.invalidate(command[1]) == ref.invalidate(
                command[1])
        else:
            cache.flush()
            ref.flush()
        resident = cache.resident_pages()
        assert resident == ref.resident_pages()
        assert len(cache) == len(resident) <= capacity
        assert len(cache._runs) <= capacity
        assert all(page in cache for page in resident)


@settings(max_examples=300, deadline=None)
@given(footprint=_footprints, total=st.integers(1, 60))
def test_page_runs_stream_the_same_pages(footprint, total):
    pages = _footprint(footprint, total)
    runs = page_runs(pages)
    assert [page for run in runs for page in run] == list(pages)
    assert all(run.step == 1 and len(run) for run in runs)
