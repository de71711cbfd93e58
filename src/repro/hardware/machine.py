"""Runtime machine: wires topology, caches, memory, interconnect, counters.

The single hot-path entry point is :meth:`Machine.touch` — the OS scheduler
calls it for every execution chunk with the set of pages the running thread
streams through.  It resolves the footprint run by run against the
executing socket's L3, charges DRAM/interconnect time for misses, and
writes every likwid-style counter the controller and the experiment
harnesses later read.  The scheduler hands it the runs and their home
nodes as the VM split them while mapping; a standalone call groups,
splits and validates the footprint itself.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from ..config import MachineConfig
from ..errors import HardwareError
from .cache import SharedCache
from .counters import CounterBank
from .interconnect import FifoChannel, Interconnect
from ..pages import page_runs
from .memory import UNPLACED, MemorySystem
from .topology import Topology


class AccessResult(NamedTuple):
    """Outcome of one :meth:`Machine.touch` call.

    A named tuple rather than a dataclass: one is allocated per touch,
    and tuple construction is several times cheaper than a generated
    dataclass ``__init__``.
    """

    stall_time: float
    hits: int
    misses: int
    remote_misses: int
    bytes_local: int
    bytes_remote: int

    @property
    def bytes_total(self) -> int:
        """All bytes pulled from DRAM (local and remote)."""
        return self.bytes_local + self.bytes_remote


class Machine:
    """A live NUMA machine instance for one simulation run."""

    def __init__(self, config: MachineConfig | None = None,
                 topology: Topology | None = None):
        if topology is None:
            topology = Topology(config or MachineConfig())
        elif config is not None and topology.config is not config:
            raise HardwareError("pass either config or topology, not both")
        self.topology = topology
        self.config = topology.config
        self.counters = CounterBank()
        self.memory = MemorySystem(topology)
        self.interconnect = Interconnect(topology, self.counters)
        self.caches = [
            SharedCache(self.config.l3_pages, socket_id=s)
            for s in topology.all_nodes()
        ]
        # per-bank FIFO channels: threads sharing one memory bank queue for
        # its bandwidth (the effect that lets the paper's adaptive mode
        # "exploit the memory bandwidth of all sockets" and that bounds
        # p(nalloc), making a local optimum exist)
        self.banks = [FifoChannel(self.config.dram_bandwidth)
                      for _ in topology.all_nodes()]
        # latency-bound seconds per page miss: lines/page divided by the
        # core's miss-level parallelism, times the DRAM latency
        cfg = self.config
        lines = cfg.page_bytes / cfg.cache_line_bytes
        self._latency_per_page = (lines / cfg.memory_parallelism
                                  * cfg.dram_latency)
        # --- touch() precomputation -----------------------------------------
        # every page fetch moves exactly cfg.page_bytes, so bank and link
        # reservation service times are loop invariants; remote paths also
        # fix the hop count, the post-link store-and-forward extra and the
        # hop-inflated requester latency per (home, socket) pair.  All
        # values are computed with the same expressions the general-purpose
        # FifoChannel/Interconnect paths use, so results stay bit-identical.
        self._bank_service = cfg.page_bytes / cfg.dram_bandwidth
        self._remote_paths: dict[tuple[int, int],
                                 tuple[FifoChannel, float, float]] = {}
        link_service = cfg.page_bytes / self.interconnect.link_bandwidth
        for home in topology.all_nodes():
            for socket in topology.all_nodes():
                if home == socket:
                    continue
                hops = topology.distance(home, socket)
                self._remote_paths[(home, socket)] = (
                    self.interconnect.link(home, socket),
                    (hops - 1) * (cfg.page_bytes
                                  / self.interconnect.link_bandwidth)
                    if hops > 1 else 0.0,
                    self._latency_per_page * (cfg.remote_penalty ** hops),
                )
        self._link_service = link_service
        # a link that drains at least as fast as its bank feeds it, and
        # is idle when a run's first page leaves the bank, finishes each
        # page one link service after the bank does
        self._link_after_bank = link_service <= self._bank_service
        # the touch entry points check the core range themselves (a bare
        # list index would wrap a negative core id)
        self._n_cores = topology.n_cores
        self._node_of = [topology.node_of_core(c)
                         for c in topology.all_cores()]
        # family handles, written in place with ``family[i] += n``
        # (handles survive CounterBank.reset)
        self._f_imc = self.counters.family("imc_bytes")
        self._f_ht_tx = self.counters.family("ht_tx_bytes")
        self._f_l3_hit = self.counters.family("l3_hit")
        self._f_l3_miss = self.counters.family("l3_miss")
        self._f_l3_inval = self.counters.family("l3_invalidations")
        self._f_busy = self.counters.family("busy_time")

    def node_of_core(self, core_id: int) -> int:
        """Convenience passthrough to the topology."""
        return self.topology.node_of_core(core_id)

    def touch(self, now: float, core_id: int, pages: Sequence[int], *,
              placed: list | None = None) -> AccessResult:
        """Stream ``pages`` from core ``core_id``; returns stalls/counters.

        Every page must already have a home node — the OS virtual-memory
        layer performs first-touch placement *before* handing work to the
        hardware (see :class:`repro.opsys.vm.VirtualMemory`).  A page
        without one raises before any cache, bank, link or counter
        changes.  ``placed`` is the footprint's current placement split
        as :meth:`VirtualMemory.touch_pages` hands it over; given it,
        the footprint is taken as already grouped, split and validated.

        Fetches within one call pipeline: bandwidth reservations at banks
        and links overlap (the batch stalls until the *last* completion),
        while the requester-side line-latency term accumulates per page.
        """
        if not 0 <= core_id < self._n_cores:
            raise HardwareError(f"core {core_id} out of range")
        socket = self._node_of[core_id]
        if placed is None:
            placed = self._placed_runs(pages, core_id, socket)
        return self._stream(now, socket, placed, len(pages))

    def touch_write(self, now: float, core_id: int, pages: Sequence[int], *,
                    placed: list | None = None) -> AccessResult:
        """Like :meth:`touch`, for written pages: writing a page also
        **invalidates** it in every other socket's L3 (the coherence
        traffic the paper's introduction blames on threads "sharing the
        same cache memory" being split across nodes).  Invalidations are
        counted per victim socket as ``l3_invalidations``."""
        if not 0 <= core_id < self._n_cores:
            raise HardwareError(f"core {core_id} out of range")
        socket = self._node_of[core_id]
        if placed is None:
            placed = self._placed_runs(pages, core_id, socket)
        runs = None
        for other, cache in enumerate(self.caches):
            if other == socket or not cache._size:
                continue
            if runs is None:
                runs = [run for run, _ in placed]
            dropped = cache._drop(runs)
            if dropped:
                self._f_l3_inval[other] += dropped
        return self._stream(now, socket, placed, len(pages))

    def _placed_runs(self, pages: Sequence[int], core_id: int, socket: int
                     ) -> list[tuple[range, list[tuple[int, int, int]]]]:
        """The footprint as page runs, each with its same-home sub-runs.

        Validates the whole footprint first: a page that was never
        allocated or never placed raises, naming the page, core and
        socket, before the caller writes any state.
        """
        memory = self.memory
        next_page = memory._next_page
        placed = []
        for run in page_runs(pages):
            if run.start < 0 or run.stop > next_page:
                page = run.start if run.start < 0 else max(run.start,
                                                           next_page)
                raise HardwareError(
                    f"page {page} was never allocated "
                    f"(core {core_id}, socket {socket})")
            split = memory.home_runs(run.start, run.stop)
            for lo, _, home in split:
                if home == UNPLACED:
                    raise HardwareError(
                        f"page {lo} touched before first-touch placement "
                        f"(core {core_id}, socket {socket})")
            placed.append((run, split))
        return placed

    def _stream(self, now: float, socket: int,
                placed: list[tuple[range, list[tuple[int, int, int]]]],
                n_pages: int) -> AccessResult:
        """Resolve validated runs against the L3 and charge the misses.

        ``placed`` pairs each run with its same-home sub-runs (adjacent
        sub-runs may share a home: the bank chain continues across them
        exactly as within one).  Each run resolves in one
        :meth:`SharedCache.resolve`; every
        missed sub-run is charged per same-home piece.  Consecutive
        misses on one bank chain their reservations, so a piece's bank,
        link and requester-latency terms are the same left-to-right float
        folds the per-page model performs, and the results are
        bit-identical to streaming the pages one by one.
        """
        cache = self.caches[socket]
        page_bytes = self.memory.page_bytes
        banks = self.banks
        remote_paths = self._remote_paths
        bank_service = self._bank_service
        link_service = self._link_service
        link_after_bank = self._link_after_bank
        latency_per_page = self._latency_per_page
        f_imc = self._f_imc
        f_ht_tx = self._f_ht_tx

        latency_stall = 0.0
        batch_done = now
        misses = 0
        remote_misses = 0
        bytes_local = 0
        bytes_remote = 0
        for run, split in placed:
            for missed in cache.resolve(run.start, run.stop):
                a, b = missed.start, missed.stop
                misses += b - a
                for lo, hi, home in split:
                    if hi <= a:
                        continue
                    if lo >= b:
                        break
                    n = (hi if hi < b else b) - (lo if lo > a else a)
                    # integer byte counts: per-piece float sums are exact
                    nbytes = n * page_bytes
                    f_imc[home] += nbytes
                    bank = banks[home]
                    free = bank._free_at
                    first = last = ((now if now > free else free)
                                    + bank_service)
                    if home == socket:
                        latency = latency_per_page
                    else:
                        link, extra, latency = remote_paths[(home, socket)]
                    for _ in range(n - 1):
                        last += bank_service
                        latency_stall += latency
                    latency_stall += latency
                    bank._free_at = last
                    if home == socket:
                        bytes_local += nbytes
                        done = last
                    else:
                        # outbound link traffic, attributed to the sending
                        # node exactly as Interconnect.transfer does
                        f_ht_tx[home] += nbytes
                        bytes_remote += nbytes
                        remote_misses += n
                        done = link._free_at
                        if link_after_bank and done <= first:
                            # the bank chain paces the link throughout
                            done = last + link_service
                        else:
                            # a busy or slower link: fold page by page
                            bank_done = first
                            done = ((first if first > done else done)
                                    + link_service)
                            for _ in range(n - 1):
                                bank_done += bank_service
                                done = ((bank_done if bank_done > done
                                         else done) + link_service)
                        link._free_at = done
                        if extra:
                            done += extra
                    if done > batch_done:
                        batch_done = done

        hits = n_pages - misses
        self._f_l3_hit[socket] += hits
        self._f_l3_miss[socket] += misses
        # tuple.__new__ skips the generated NamedTuple constructor
        return tuple.__new__(AccessResult, (
            (batch_done - now) + latency_stall, hits, misses,
            remote_misses, bytes_local, bytes_remote))

    def account_busy(self, core_id: int, seconds: float) -> None:
        """Record core busy time (the mpstat source).

        A core outside the machine, or a negative, infinite or NaN
        duration, raises before the counter changes."""
        if not 0 <= core_id < self._n_cores:
            raise HardwareError(
                f"core {core_id} out of range (busy time {seconds!r})")
        if not 0.0 <= seconds < math.inf:
            raise HardwareError(
                f"busy time {seconds!r} on core {core_id} must be finite "
                f"and non-negative")
        self._f_busy[core_id] += seconds

    def flush_caches(self) -> None:
        """Empty every L3 (used between experiment repetitions)."""
        for cache in self.caches:
            cache.flush()

    def compute_time(self, cycles: float) -> float:
        """Seconds a core needs to retire ``cycles`` of pure compute."""
        return cycles / self.config.frequency_hz
