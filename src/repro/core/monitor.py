"""The monitoring half of the rule-condition-action pipeline.

Plays the role of the paper's mpstat/likwid loop: every controller tick it
produces a :class:`MonitorSample` with each core's *busy* (wall-clock,
stalls included; the paper's ``u`` averages it, §IV-A) and *useful*
(retired compute only) percentages, and the counter deltas the strategies
need (HT bytes, IMC bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.counters import CounterSnapshot
from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem


@dataclass(frozen=True)
class MonitorSample:
    """One monitoring window's observations."""

    time: float
    window: float
    per_core_busy: dict[int, float]
    per_core_useful: dict[int, float]
    #: the tenant's cpuset when the window closed
    allocated_cores: tuple[int, ...]
    ht_bytes: float
    imc_bytes: float
    runnable_threads: int = 0

    @property
    def queue_pressure(self) -> bool:
        """More runnable threads than allocated cores (demand queued)."""
        return self.runnable_threads > len(self.allocated_cores)

    @property
    def cpu_load(self) -> float:
        """Average load of the allocated cores (the paper's ``u``), %."""
        return self._mean_allocated(self.per_core_busy)

    @property
    def useful_load(self) -> float:
        """Average retired-work share of the allocated cores, %."""
        return self._mean_allocated(self.per_core_useful)

    def _mean_allocated(self, values: dict[int, float]) -> float:
        cores = self.allocated_cores
        if not cores:
            return 0.0
        return sum(values.get(c, 0.0) for c in cores) / len(cores)

    @property
    def ht_imc_ratio(self) -> float:
        """Interconnect bytes over memory-controller bytes this window.

        The paper's NUMA-friendliness signal (§V-B): low means data is
        served locally, high means it travels between nodes first.
        """
        if self.imc_bytes <= 0:
            return 0.0
        return self.ht_bytes / self.imc_bytes


class Monitor:
    """Stateful sampler; one per controller instance.

    Each pass takes one snapshot of the hardware counter bank and reads
    the window since the previous one: per-core busy and useful
    percentages (the mpstat view, averaged over ``tenant``'s cpuset)
    and the machine-wide HT and IMC deltas (likwid reads sockets,
    not cgroups), plus the runnable count of the tenant's managed
    threads.  Each monitor keeps its own previous snapshot, so two
    concurrent controllers never corrupt each other's windows.
    """

    def __init__(self, os: OperatingSystem, tenant: str = DEFAULT_TENANT):
        self.os = os
        self.tenant = tenant
        self._cpuset = os.inventory.cpuset_of(tenant)
        #: the core list never changes for one machine
        self._cores: tuple[int, ...] = tuple(os.topology.all_cores())
        self._previous: CounterSnapshot | None = None

    def prime(self) -> None:
        """Take the initial snapshot without producing a sample."""
        self._previous = self.os.counters.snapshot(self.os.now)

    def sample(self) -> MonitorSample:
        """Observe the window since the previous call."""
        now = self.os.now
        current = self.os.counters.snapshot(now)
        previous = self._previous
        self._previous = current
        cores = self._cores
        if previous is None or current.time <= previous.time:
            window = 0.0
            busy = {c: 0.0 for c in cores}
            useful = {c: 0.0 for c in cores}
        else:
            window = current.time - previous.time
            busy = _percent(current, previous, "busy_time", cores, window)
            useful = _percent(current, previous, "useful_time", cores,
                              window)
        if previous is None:
            ht = imc = 0.0
        else:
            ht = current.delta_total(previous, "ht_tx_bytes")
            imc = current.delta_total(previous, "imc_bytes")
        return MonitorSample(
            time=now, window=window, per_core_busy=busy,
            per_core_useful=useful,
            allocated_cores=self._cpuset.allowed_tuple(),
            ht_bytes=ht, imc_bytes=imc,
            runnable_threads=self.os.scheduler.runnable_threads(
                self.tenant))


def _percent(current: CounterSnapshot, previous: CounterSnapshot,
             name: str, cores: tuple[int, ...],
             window: float) -> dict[int, float]:
    """Per-core percentages of one time-counter family over ``window``,
    read straight off the two snapshots' family dicts (the arithmetic of
    :meth:`CounterSnapshot.delta`, minus two method calls per core)."""
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
