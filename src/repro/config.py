"""Configuration dataclasses for the machine, the OS model and the mechanism.

Every tunable of the simulation lives here as a frozen dataclass so that an
experiment is fully described by plain data.  The defaults model the paper's
testbed: a 4-node Quad-Core AMD Opteron 8387 at 2.8 GHz with 6 MB of shared L3
per socket and HyperTransport 3.x interconnect (41.6 GB/s aggregate), running
a controller with CPU-load thresholds ``thmin=10`` / ``thmax=70``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .units import gb_per_s, ghz, kib, mib, msec


@dataclass(frozen=True)
class MachineConfig:
    """Static description of a NUMA machine.

    Attributes
    ----------
    n_sockets:
        Number of NUMA nodes; each node owns one memory bank and one L3.
    cores_per_socket:
        Cores per node (homogeneous).
    frequency_hz:
        Core clock; work is expressed in cycles and divided by this.
    page_bytes:
        Granularity of the memory model.  64 KiB keeps page sets small while
        still resolving the paper's locality effects (the real 4 KiB pages
        would only scale every page count by 16).
    l3_bytes:
        Shared last-level cache per socket.
    dram_bytes:
        Memory bank capacity per node.
    dram_latency:
        Seconds to service one page miss from the *local* bank.
    dram_bandwidth:
        Bytes/s one memory bank can stream to its local cores.
    remote_penalty:
        Multiplier on :attr:`dram_latency` per hop of NUMA distance.
    cache_line_bytes:
        Transfer granularity under the page model; with
        :attr:`memory_parallelism` it sets the latency-bound component of a
        page miss (``lines/page / MLP * latency``) — the part that makes a
        remote miss cost the *requesting core* more even when no link is
        saturated.
    memory_parallelism:
        Outstanding-miss overlap (MLP) of one core.
    ht_link_bandwidth:
        Bytes/s one HyperTransport link can carry in each direction.
    ht_aggregate_bandwidth:
        Bytes/s ceiling across all links (the paper's 41.6 GB/s figure).
    acp_watts:
        Average CPU Power per socket, for the energy model (paper §V-C3).
    idle_power_fraction:
        Fraction of ACP a socket burns when fully idle.
    ht_joules_per_bit:
        Energy per bit moved over the interconnect, after [Wang & Lee 2015].
    """

    n_sockets: int = 4
    cores_per_socket: int = 4
    frequency_hz: float = ghz(2.8)
    page_bytes: int = kib(64)
    l3_bytes: int = mib(6)
    dram_bytes: int = mib(16 * 1024)
    dram_latency: float = 100e-9
    dram_bandwidth: float = gb_per_s(6.4)
    remote_penalty: float = 1.6
    cache_line_bytes: int = 64
    memory_parallelism: float = 5.0
    ht_link_bandwidth: float = gb_per_s(10.4)
    ht_aggregate_bandwidth: float = gb_per_s(41.6)
    acp_watts: float = 75.0
    idle_power_fraction: float = 0.35
    ht_joules_per_bit: float = 1.4e-11

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ConfigError("machine needs at least one socket")
        if self.cores_per_socket < 1:
            raise ConfigError("sockets need at least one core")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigError("page_bytes must be a positive power of two")
        if self.l3_bytes < self.page_bytes:
            raise ConfigError("L3 must hold at least one page")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if not 0.0 <= self.idle_power_fraction <= 1.0:
            raise ConfigError("idle_power_fraction must be within [0, 1]")

    @property
    def n_cores(self) -> int:
        """Total cores in the machine (``ntotal`` in the paper)."""
        return self.n_sockets * self.cores_per_socket

    @property
    def l3_pages(self) -> int:
        """L3 capacity expressed in pages."""
        return self.l3_bytes // self.page_bytes


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the simulated OS scheduler (the CFS stand-in).

    Attributes
    ----------
    quantum:
        Time slice handed to the thread at the head of a run queue.
    balance_interval:
        Period of the load balancer that inspects queue lengths and steals
        tasks from the busiest core — the behaviour whose NUMA-obliviousness
        the paper exploits.
    imbalance_threshold:
        Minimum difference in queue length (busiest - idlest) that triggers
        a steal.
    migration_cost:
        Fixed overhead charged to a thread when it is moved between cores.
    minor_fault_cost:
        Kernel time charged to a thread per minor page fault (PTE setup);
        this is what makes the paper's fault-rate signal (Fig 4b) a real
        cost, not just a counter.
    context_switch_cost:
        Charged when a core dispatches a different thread than it last ran
        (register/TLB switch; cache warmth is modelled by the shared L3).
    numa_balancing:
        Linux AutoNUMA: pages repeatedly accessed from a remote node are
        migrated to that node (off by default, like the paper's kernel
         3.16 configuration; an ablation turns it on).
    numa_migration_streak:
        Consecutive remote accesses from the same node before AutoNUMA
        moves the page.
    """

    quantum: float = msec(4)
    balance_interval: float = msec(20)
    imbalance_threshold: int = 2
    migration_cost: float = msec(0.05)
    minor_fault_cost: float = 3e-6
    context_switch_cost: float = 3e-6
    numa_balancing: bool = False
    numa_migration_streak: int = 3

    def __post_init__(self) -> None:
        if self.numa_migration_streak < 1:
            raise ConfigError("numa_migration_streak must be >= 1")
        if self.quantum <= 0:
            raise ConfigError("quantum must be positive")
        if self.balance_interval <= 0:
            raise ConfigError("balance_interval must be positive")
        if self.imbalance_threshold < 1:
            raise ConfigError("imbalance_threshold must be >= 1")
        if self.migration_cost < 0:
            raise ConfigError("migration_cost cannot be negative")
        if self.minor_fault_cost < 0:
            raise ConfigError("minor_fault_cost cannot be negative")
        if self.context_switch_cost < 0:
            raise ConfigError("context_switch_cost cannot be negative")


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the elastic allocation mechanism (paper §III-IV).

    Attributes
    ----------
    interval:
        Period of the rule-condition-action pipeline; each tick samples the
        counters and fires at most one allocate/release transition.
    initial_cores:
        Cores exposed to the OS before the first tick (paper: 1).
    min_cores:
        Transition ``t7`` bound: never release below this.

    The ``thmin``/``thmax`` thresholds are *not* configured here: they
    live on the :class:`~repro.core.strategies.TransitionStrategy` (each
    strategy owns its metric's domain — percentages for CPU load, ratios
    for HT/IMC) and :func:`preflight_defects` reads them from there.
    """

    interval: float = msec(20)
    initial_cores: int = 1
    min_cores: int = 1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError("controller interval must be positive")
        if self.initial_cores < 1:
            raise ConfigError("initial_cores must be >= 1")
        if self.min_cores < 1:
            raise ConfigError("min_cores must be >= 1")
        if self.initial_cores < self.min_cores:
            raise ConfigError("initial_cores must be >= min_cores")


def preflight_defects(th_min: float, th_max: float, min_cores: int,
                      initial_cores: int, n_total: int) -> list[str]:
    """Name every controller-vs-machine contradiction, without raising.

    Used by the controller's pre-flight check (and ``repro verify``) so a
    defective configuration can be reported as a
    :class:`~repro.errors.ModelConfigurationError` at ``start()`` time with
    *all* defects listed, instead of failing on the first one mid-build.
    """
    defects = []
    if th_min >= th_max:
        defects.append(
            f"thresholds inverted: th_min={th_min} >= th_max={th_max}")
    if min_cores < 1:
        defects.append(f"min_cores={min_cores} must be >= 1")
    if min_cores > n_total:
        defects.append(
            f"min_cores={min_cores} exceeds the machine's "
            f"n_total={n_total}")
    if initial_cores > n_total:
        defects.append(
            f"initial_cores={initial_cores} exceeds the machine's "
            f"n_total={n_total}")
    if initial_cores < min_cores:
        defects.append(
            f"initial_cores={initial_cores} below min_cores={min_cores}")
    return defects


@dataclass(frozen=True)
class EngineConfig:
    """Behavioural knobs of the simulated DBMS engines.

    Attributes
    ----------
    workers_follow_mask:
        MonetDB spawns one worker per core it can see; under a cpuset mask
        the visible count shrinks.  Set ``False`` to always spawn one worker
        per physical core regardless of the mask.
    loader_node:
        NUMA node on which the single-threaded loader first-touches base
        table pages (MonetDB concentrates data on one node; the paper's
        Fig 18(a) shows socket S0).  ``None`` selects round-robin placement
        across nodes, which is what the NUMA-aware engine uses.
    managed_threads:
        When ``True`` (databases) workers live in the DB cgroup and obey
        the elastic mechanism's cpuset.  ``False`` models a co-located
        application outside the cgroup (the paper's mixed OLAP/OLTP
        future-work scenario): its threads may use any core, including
        the ones the mechanism released.
    """

    workers_follow_mask: bool = True
    loader_node: int | None = 0
    managed_threads: bool = True
    #: upper bound on workers per query (None = per-core); point-query
    #: applications set 1
    max_workers: int | None = None
    #: feed-forward extension (paper §VII): size each query's worker
    #: pool to its predicate-shaped footprint instead of one-per-core
    predicate_aware: bool = False
