"""Extension — two elastic controllers sharing one machine.

The paper runs *one* mechanism instance governing *one* database cgroup.
Each :class:`~repro.core.ElasticController` holds its tenant's core
leases against the machine-wide :class:`~repro.opsys.CoreInventory`, and
never allocates a core another tenant holds, so nothing stops a second
controller from governing a second tenant on the same box — provided the
inventory keeps their core sets disjoint.

This harness is that proof:

* tenant **volcano** — the MonetDB-like OS-scheduled engine;
* tenant **numa** — the SQL Server-like partitioned engine;

each behind its *own* :class:`~repro.core.ElasticController` (own
monitor over the tenant's cpuset, own Petri net, own lease set), both
ticking concurrently on one simulated Opteron 8387.  The simulation is
driven in slices no longer than the controller interval and after every
slice the harness checks the inventory invariants and asserts the two
tenants' leased masks are disjoint — i.e. at every tick boundary.

Provenance stays attributable: each decision record carries the tenant
name, so ``repro explain --tenant volcano`` replays one controller's
reasoning without the other's interleaved ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..config import ControllerConfig
from ..core import ElasticController, make_mode, make_strategy
from ..db.clients import ClientPool, repeat_stream
from ..db.engine import MonetDBLike
from ..db.numa_aware import NumaAwareEngine
from ..errors import AllocationError
from ..hardware.prebuilt import opteron_8387
from ..opsys.system import OperatingSystem
from ..sim.tracing import PlacementRecord, TraceRecorder
from ..workloads.selectivity import selectivity_name, selectivity_query
from .common import dataset_for

#: the workload both tenants run (the paper's ~45 %-selectivity scan)
WORKLOAD = selectivity_name(0.45)


@dataclass(frozen=True)
class TenantCell:
    """One tenant's outcome."""

    throughput: float
    mean_latency: float
    mean_cores: float
    max_cores: int
    ticks: int
    mask_changes: int


@dataclass
class MultiTenantResult:
    """Both tenants' outcomes plus the disjointness audit."""

    cells: dict[str, TenantCell] = field(default_factory=dict)
    #: (time, volcano cores, numa cores) after every simulation slice
    samples: list[tuple[float, int, int]] = field(default_factory=list)
    #: slices whose leased masks intersected (must stay 0)
    overlap_violations: int = 0
    makespan: float = 0.0

    @property
    def peak_combined_cores(self) -> int:
        """Largest sum of both tenants' cores over the run."""
        if not self.samples:
            return 0
        return max(v + n for _, v, n in self.samples)

    def rows(self) -> list[list[object]]:
        """One row per tenant."""
        return [[tenant, cell.throughput, cell.mean_latency,
                 cell.mean_cores, cell.max_cores, cell.ticks,
                 cell.mask_changes]
                for tenant, cell in self.cells.items()]

    def table(self) -> str:
        """The two-controller comparison as a text table."""
        table = render_table(
            ["tenant", "q/s", "lat s", "mean cores", "max cores",
             "ticks", "mask changes"],
            self.rows(),
            title="Extension - two controllers, one machine")
        return (f"{table}\n"
                f"lease overlap violations: {self.overlap_violations} "
                f"(checked {len(self.samples)} slices); "
                f"peak combined cores: {self.peak_combined_cores}")


def run(n_clients: int = 6, repetitions: int = 2, scale: float = 0.01,
        sim_scale: float = 1.0, mode: str = "adaptive",
        strategy: str = "cpu_load", max_slices: int = 100_000,
        ) -> MultiTenantResult:
    """Run both tenants under concurrent controllers to completion."""
    tracer = TraceRecorder()
    tracer.mute(PlacementRecord)
    os_ = OperatingSystem(opteron_8387(), tracer=tracer)
    os_.create_tenant("volcano")
    os_.create_tenant("numa")

    dataset = dataset_for(scale, sim_scale)
    engines = {
        "volcano": MonetDBLike(os_, dataset.catalog(), dataset.byte_scale,
                               tenant="volcano"),
        "numa": NumaAwareEngine(os_, dataset.catalog(), dataset.byte_scale,
                                tenant="numa"),
    }
    for engine in engines.values():
        engine.load()
        engine.register_query(WORKLOAD, selectivity_query(0.45))
    os_.counters.reset()

    config = ControllerConfig()
    controllers = {
        tenant: ElasticController(
            os_, make_mode(mode, os_.topology), make_strategy(strategy),
            config, keepalive=True, tenant=tenant)
        for tenant in engines
    }
    for controller in controllers.values():
        controller.start()

    pools = {tenant: ClientPool(engine, n_clients,
                                repeat_stream(WORKLOAD, repetitions))
             for tenant, engine in engines.items()}
    results = {tenant: pool.start() for tenant, pool in pools.items()}

    result = MultiTenantResult()
    started = os_.now
    expected = n_clients * repetitions

    def finished() -> bool:
        return all(r.queries_completed >= expected
                   for r in results.values())

    # drive in controller-interval slices; at every tick boundary the
    # lease sets of the two governed tenants must be disjoint
    for _ in range(max_slices):
        if finished():
            break
        os_.run(until=os_.now + config.interval)
        os_.inventory.check()
        volcano = os_.inventory.mask_of("volcano")
        numa = os_.inventory.mask_of("numa")
        if volcano & numa:
            result.overlap_violations += 1
        result.samples.append((os_.now, len(volcano), len(numa)))
    else:
        raise AllocationError(
            f"tenants did not finish within {max_slices} slices")
    result.makespan = os_.now - started

    for tenant, controller in controllers.items():
        controller.stop()
        workload = results[tenant]
        cores = [v if tenant == "volcano" else n
                 for _, v, n in result.samples]
        changes = sum(1 for prev, cur in zip(cores, cores[1:])
                      if cur != prev)
        result.cells[tenant] = TenantCell(
            throughput=workload.throughput,
            mean_latency=workload.mean_latency(),
            mean_cores=sum(cores) / len(cores) if cores else 0.0,
            max_cores=max(cores, default=0),
            ticks=controller.ticks,
            mask_changes=changes,
        )
    os_.run_until_idle()
    if result.overlap_violations:
        raise AllocationError(
            f"{result.overlap_violations} slices saw overlapping leases")
    return result
