"""Extension — SLA-governed allocation (paper §VII future work).

Runs the concurrent scan workload under three configurations:

* the plain OS scheduler (no budget, the traffic it generates is the
  reference);
* the adaptive mechanism with no SLA;
* the adaptive mechanism governed by an interconnect-traffic budget set
  to a fraction of the OS run's observed rate.

The claim to quantify: the governed controller keeps the measured HT
rate at or under the budget by shedding cores, trading throughput
proportionally — "meeting service level agreements (e.g., energy or
data traffic)" as the paper's conclusion proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..core import ElasticController, make_mode
from ..core.sla import SlaGovernor
from ..core.strategies import CpuLoadStrategy
from ..db.clients import repeat_stream
from .common import build_system


@dataclass(frozen=True)
class SlaCell:
    """One configuration's outcome."""

    throughput: float
    ht_rate: float
    mean_cores: float
    violations: int


@dataclass
class SlaResult:
    """Cells per configuration label plus the applied budget."""

    traffic_budget: float = 0.0
    cells: dict[str, SlaCell] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[label, cell.throughput, cell.ht_rate / 1e9,
                 cell.mean_cores, cell.violations]
                for label, cell in self.cells.items()]

    def table(self) -> str:
        """The SLA comparison as a text table."""
        return render_table(
            ["config", "queries/s", "HT GB/s", "mean cores",
             "violations"],
            self.rows(),
            title=(f"Extension - traffic SLA "
                   f"(budget {self.traffic_budget / 1e9:.2f} GB/s)"))


def _measure(sut, n_clients, reps, workload) -> tuple[float, float]:
    sut.mark()
    result = sut.run_clients(n_clients, repeat_stream(workload, reps))
    makespan = max(result.makespan, 1e-9)
    return result.throughput, sut.delta("ht_tx_bytes") / makespan


def run(budget_fraction: float = 0.5, n_clients: int = 16,
        reps: int = 3, workload: str = "sel_45pct",
        scale: float = 0.01, sim_scale: float = 1.0) -> SlaResult:
    """Measure the OS reference, then ungoverned and governed adaptive."""
    result = SlaResult()

    baseline = build_system(engine="monetdb", mode=None, scale=scale,
                            sim_scale=sim_scale)
    throughput, ht_rate = _measure(baseline, n_clients, reps, workload)
    result.cells["OS"] = SlaCell(throughput, ht_rate, 16.0, 0)
    result.traffic_budget = ht_rate * budget_fraction

    ungoverned = build_system(engine="monetdb", mode="adaptive",
                              scale=scale, sim_scale=sim_scale)
    throughput, ht_rate = _measure(ungoverned, n_clients, reps, workload)
    result.cells["adaptive"] = SlaCell(
        throughput, ht_rate,
        ungoverned.controller.lonc_report().mean_cores, 0)

    # build without a controller, then attach the SLA-governed one
    governed = build_system(engine="monetdb", mode=None, scale=scale,
                            sim_scale=sim_scale)
    governed.mode_name = "adaptive+sla"
    governor = SlaGovernor(CpuLoadStrategy(),
                           machine=governed.os.machine.config,
                           traffic_budget=result.traffic_budget)
    controller = ElasticController(
        governed.os, make_mode("adaptive", governed.os.topology),
        governor)
    controller.start()
    governed.controller = controller
    throughput, ht_rate = _measure(governed, n_clients, reps, workload)
    result.cells["adaptive+sla"] = SlaCell(
        throughput, ht_rate, controller.lonc_report().mean_cores,
        governor.violations)
    return result
