"""mpstat-style CPU-load sampling over the hardware counter bank.

The controller's LONC definition uses ``u`` — the average load of the
*allocated* cores over a monitoring window (§IV-A).  :class:`LoadSampler`
owns the previous snapshot and produces :class:`LoadSample` values with
per-core busy and *useful* percentages.

Two utilisation flavours are reported:

``busy``
    wall-clock occupancy of the core (what raw mpstat prints; memory
    stalls count as busy).  This is the paper's ``u`` and the default
    CPU-load strategy's metric.
``useful``
    the retired-compute share, excluding memory stalls — the per-core
    analogue of utilisation inferred from IPC.  Exposed for the
    ``useful_load`` ablation strategy: it makes memory-bandwidth
    saturation visible to the controller, but it also under-allocates
    when demand is queued (stalled-but-busy cores look idle).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.counters import CounterSnapshot
from ..hardware.machine import Machine
from .cpuset import CpuSet


@dataclass(frozen=True)
class LoadSample:
    """One monitoring window's CPU-load picture (percentages, 0..100)."""

    time: float
    window: float
    per_core_busy: dict[int, float]
    per_core_useful: dict[int, float]
    allocated_cores: tuple[int, ...]

    @property
    def per_core(self) -> dict[int, float]:
        """Alias for the busy percentages (the mpstat view)."""
        return self.per_core_busy

    @property
    def average_allocated(self) -> float:
        """The paper's ``u``: mean busy load of the allocated cores."""
        return self._mean(self.per_core_busy, self.allocated_cores)

    @property
    def average_useful_allocated(self) -> float:
        """Mean retired-work share of the allocated cores."""
        return self._mean(self.per_core_useful, self.allocated_cores)

    @staticmethod
    def _mean(values: dict[int, float], cores) -> float:
        if not cores:
            return 0.0
        return sum(values.get(c, 0.0) for c in cores) / len(cores)

    def average_node(self, cores: list[int]) -> float:
        """Mean busy load of an arbitrary core group (e.g. one node)."""
        if not cores:
            return 0.0
        return self._mean(self.per_core_busy, cores)


class LoadSampler:
    """Stateful sampler: call :meth:`sample` once per monitoring tick."""

    def __init__(self, machine: Machine, cpuset: CpuSet):
        self.machine = machine
        self.cpuset = cpuset
        self._previous: CounterSnapshot | None = None
        #: the core list never changes for one machine; computed once so
        #: every monitoring tick skips the topology walk
        self._cores: tuple[int, ...] = tuple(machine.topology.all_cores())

    def prime(self, now: float) -> None:
        """Take the initial snapshot without producing a sample."""
        self._previous = self.machine.counters.snapshot(now)

    def sample(self, now: float) -> LoadSample:
        """Busy/useful percentages since the previous call."""
        current = self.machine.counters.snapshot(now)
        previous = self._previous
        self._previous = current
        cores = self._cores
        if previous is None or current.time <= previous.time:
            window = 0.0
            busy = {c: 0.0 for c in cores}
            useful = {c: 0.0 for c in cores}
        else:
            window = current.time - previous.time
            # the per-core deltas, read straight off the two snapshots'
            # family dicts (same arithmetic as CounterSnapshot.delta,
            # minus two method calls per core per tick)
            busy = self._percent(current, previous, "busy_time",
                                 cores, window)
            useful = self._percent(current, previous, "useful_time",
                                   cores, window)
        return LoadSample(
            time=now,
            window=window,
            per_core_busy=busy,
            per_core_useful=useful,
            allocated_cores=self.cpuset.allowed_tuple(),
        )

    @staticmethod
    def _percent(current: CounterSnapshot, previous: CounterSnapshot,
                 name: str, cores: tuple[int, ...],
                 window: float) -> dict[int, float]:
        """Per-core busy percentages for one time-counter family."""
        cur_family = current._families.get(name)
        if cur_family is None:
            return {c: 0.0 for c in cores}
        prev_family = previous._families.get(name, {})
        out = {}
        for core in cores:
            cur_v = cur_family.get(core)
            if cur_v is None:
                out[core] = 0.0
                continue
            prev_v = prev_family.get(core, 0.0)
            out[core] = min(100.0, 100.0 * (cur_v - prev_v) / window)
        return out
