"""Fig 4 — TPC-H Q6 with increasing concurrent clients (paper §II-B1).

Four variants, as in the paper:

* ``dense/C``, ``sparse/C``, ``os/C`` — the hand-coded pthreads kernel with
  preset or OS-chosen affinity;
* ``os/monetdb`` — the SQL version on the Volcano engine, OS-scheduled.

Reported per (variant, users): query throughput (Fig 4a), minor page
faults per second (Fig 4b) and interconnect traffic in MB/s (Fig 4c).

Expected shapes: HT traffic grows with users everywhere; the engine moves
an order of magnitude more data over the interconnect than the C kernel at
low concurrency, narrowing to single-digit factors at high concurrency;
the dense kernel stays lowest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from ..errors import ReproError
from ..opsys.system import OperatingSystem
from ..sim.tracing import PlacementRecord, TraceRecorder
from ..workloads.microbench import run_q6_kernel
from .common import build_system, dataset_for

DEFAULT_USERS = (1, 4, 16, 64)
C_VARIANTS = ("dense", "sparse", "os")


@dataclass
class Fig04Result:
    """Series per variant: users -> (throughput, faults/s, HT MB/s)."""

    users: tuple[int, ...]
    series: dict[str, dict[int, tuple[float, float, float]]] \
        = field(default_factory=dict)

    def throughput(self, variant: str, users: int) -> float:
        """Queries per second for one cell."""
        return self.series[variant][users][0]

    def ht_mb_per_s(self, variant: str, users: int) -> float:
        """Interconnect MB/s for one cell."""
        return self.series[variant][users][2]

    def rows(self) -> list[list[object]]:
        """Flat rows for rendering."""
        out: list[list[object]] = []
        for variant, per_users in self.series.items():
            for users in self.users:
                tp, faults, ht = per_users[users]
                out.append([variant, users, tp, faults, ht])
        return out

    def table(self) -> str:
        """The Fig 4 series as a text table."""
        return render_table(
            ["variant", "users", "queries/s", "minor faults/s", "HT MB/s"],
            self.rows(), title="Fig 4 - Q6 vs concurrent clients")


def _run_c_variant(affinity: str, users: int, repetitions: int,
                   scale: float, sim_scale: float) -> tuple[float, float,
                                                            float]:
    dataset = dataset_for(scale, sim_scale)
    tracer = TraceRecorder()
    tracer.mute(PlacementRecord)
    os_ = OperatingSystem(tracer=tracer)
    catalog = dataset.catalog()
    catalog.load(os_.vm, policy="single_node", loader_node=0)
    os_.counters.reset()
    result = run_q6_kernel(os_, catalog.table("lineitem"), users,
                           repetitions=repetitions, affinity=affinity)
    makespan = max(result.makespan, 1e-9)
    return (result.throughput,
            os_.counters.total("minor_faults") / makespan,
            os_.counters.total("ht_tx_bytes") / makespan / 1e6)


def _run_engine_variant(users: int, repetitions: int, scale: float,
                        sim_scale: float) -> tuple[float, float, float]:
    sut = build_system(engine="monetdb", mode=None, scale=scale,
                       sim_scale=sim_scale)
    sut.mark()
    result = sut.run_clients(users, repeat_stream("q6", repetitions))
    makespan = max(result.makespan, 1e-9)
    return (result.throughput,
            sut.delta("minor_faults") / makespan,
            sut.delta("ht_tx_bytes") / makespan / 1e6)


def run_cell(variant: str, users: int, repetitions: int = 2,
             scale: float = 0.01,
             sim_scale: float = 1.0) -> tuple[float, float, float]:
    """One (variant, users) cell: ``"<affinity>/C"`` or ``os/monetdb``."""
    if variant == "os/monetdb":
        return _run_engine_variant(users, repetitions, scale, sim_scale)
    affinity = variant.removesuffix("/C")
    if affinity not in C_VARIANTS or affinity == variant:
        raise ReproError(f"unknown fig4 variant {variant!r}")
    return _run_c_variant(affinity, users, repetitions, scale, sim_scale)


def run(users: tuple[int, ...] = DEFAULT_USERS, repetitions: int = 2,
        scale: float = 0.01, sim_scale: float = 1.0,
        parallel: int = 1) -> Fig04Result:
    """Run all four variants over the user sweep.

    Cells build independent systems, so ``parallel > 1`` fans them
    across worker processes with an ordered merge.
    """
    from ..runner.pool import Task, run_tasks

    result = Fig04Result(users=users)
    variants = [f"{affinity}/C" for affinity in C_VARIANTS]
    variants.append("os/monetdb")
    keys = [(variant, n) for variant in variants for n in users]
    cells = run_tasks(
        [Task("repro.experiments.fig04_microbench:run_cell",
              dict(variant=variant, users=n, repetitions=repetitions,
                   scale=scale, sim_scale=sim_scale))
         for variant, n in keys],
        parallel=parallel)
    for (variant, n), cell in zip(keys, cells):
        result.series.setdefault(variant, {})[n] = cell
    return result
