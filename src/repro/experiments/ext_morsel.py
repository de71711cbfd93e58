"""Extension — the mechanism on a morsel-driven engine (paper §VI).

The paper positions its mechanism as *orthogonal* to morsel-driven
parallelism: it "can deliver to morsels a dynamic sub-set of cores to
efficiently adapt to OLAP workloads".  This experiment quantifies both
halves of that discussion on the simulator:

* **morsel vs Volcano baselines** — HyPer-style NUMA-local dispatch
  should beat the OS-scheduled Volcano engine on interconnect traffic
  out of the box (the related-work premise);
* **morsel + mechanism** — the elastic controller applied to the morsel
  engine should at least hold its throughput while shrinking the core
  footprint (the orthogonality claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..workloads.phases import mixed_phases_stream
from .common import build_system

CONFIGS = (
    ("monetdb", None),
    ("morsel", None),
    ("morsel", "adaptive"),
)


@dataclass(frozen=True)
class MorselCell:
    """One configuration's outcome."""

    throughput: float
    makespan: float
    ht_imc: float
    mean_cores: float


@dataclass
class MorselResult:
    """Cells per configuration label."""

    cells: dict[str, MorselCell] = field(default_factory=dict)

    def cell(self, engine: str, mode: str | None) -> MorselCell:
        """Fetch one configuration's cell."""
        return self.cells[f"{engine}/{mode or 'OS'}"]

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[label, cell.throughput, cell.makespan, cell.ht_imc,
                 cell.mean_cores]
                for label, cell in self.cells.items()]

    def table(self) -> str:
        """The comparison as a text table."""
        return render_table(
            ["config", "queries/s", "makespan s", "HT/IMC",
             "mean cores"],
            self.rows(),
            title="Extension - morsel-driven engine x the mechanism")


def run(n_clients: int = 32, queries_per_client: int = 3,
        scale: float = 0.01, sim_scale: float = 1.0,
        seed: int = 7) -> MorselResult:
    """Mixed workload over the three configurations."""
    result = MorselResult()
    stream = mixed_phases_stream(queries_per_client, seed=seed)
    for engine, mode in CONFIGS:
        sut = build_system(engine=engine, mode=mode, scale=scale,
                           sim_scale=sim_scale)
        sut.mark()
        workload = sut.run_clients(n_clients, stream)
        mean_cores = (sut.controller.lonc_report().mean_cores
                      if sut.controller else
                      float(sut.os.topology.n_cores))
        result.cells[sut.label] = MorselCell(
            throughput=workload.throughput,
            makespan=workload.makespan,
            ht_imc=sut.ht_imc_ratio(),
            mean_cores=mean_cores,
        )
    return result
