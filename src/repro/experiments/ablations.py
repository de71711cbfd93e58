"""Ablations over the design choices DESIGN.md calls out.

Three studies, each over the concurrent ~45 %-selectivity scan workload:

* **thresholds** — the paper states (§V) that lowering ``thmin`` leaves
  too many cores idle and raising ``thmax`` causes contention; the sweep
  quantifies both directions around the chosen (10, 70);
* **strategies** — CPU-load (paper default) vs HT/IMC (paper §V-B) vs
  the retired-work ``useful_load`` variant: the throughput/traffic
  trade-off each picks;
* **elastic parallelism** — ``workers_follow_mask`` on/off: how much of
  the mechanism's benefit comes from queries admitting fewer workers
  under a partial mask (on) versus pure placement (off);
* **AutoNUMA** — the kernel-side alternative [24]: OS-driven page
  migration toward the accessing node, with and without the mechanism,
  versus the mechanism alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..config import EngineConfig, SchedulerConfig
from ..core.strategies import CpuLoadStrategy
from ..db.clients import repeat_stream
from .common import build_system

WORKLOAD = "sel_45pct"


@dataclass(frozen=True)
class AblationCell:
    """One configuration's outcome."""

    throughput: float
    ht_rate: float
    mean_cores: float
    stable_fraction: float


@dataclass
class AblationResult:
    """Cells per configuration label, with a named study."""

    study: str
    cells: dict[str, AblationCell] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[label, cell.throughput, cell.ht_rate / 1e9,
                 cell.mean_cores, f"{cell.stable_fraction:.0%}"]
                for label, cell in self.cells.items()]

    def table(self) -> str:
        """The ablation as a text table."""
        return render_table(
            ["config", "queries/s", "HT GB/s", "mean cores", "stable"],
            self.rows(), title=f"Ablation - {self.study}")


def _measure(sut, n_clients: int, reps: int) -> AblationCell:
    sut.mark()
    result = sut.run_clients(n_clients, repeat_stream(WORKLOAD, reps))
    makespan = max(result.makespan, 1e-9)
    if sut.controller is not None:
        report = sut.controller.lonc_report()
        mean_cores = report.mean_cores
        stable = report.stable_fraction
    else:
        mean_cores = float(sut.os.topology.n_cores)
        stable = 0.0
    return AblationCell(
        throughput=result.throughput,
        ht_rate=sut.delta("ht_tx_bytes") / makespan,
        mean_cores=mean_cores,
        stable_fraction=stable,
    )


def thresholds(n_clients: int = 16, reps: int = 3, scale: float = 0.01,
               sim_scale: float = 1.0) -> AblationResult:
    """Sweep (thmin, thmax) around the paper's (10, 70)."""
    result = AblationResult(study="CPU-load thresholds")
    for th_min, th_max in ((2.0, 70.0), (10.0, 70.0), (10.0, 95.0),
                           (25.0, 70.0)):
        sut = build_system(
            engine="monetdb", mode="adaptive",
            strategy=CpuLoadStrategy(th_min=th_min, th_max=th_max),
            scale=scale, sim_scale=sim_scale)
        result.cells[f"th=({th_min:g},{th_max:g})"] = _measure(
            sut, n_clients, reps)
    return result


def strategies(n_clients: int = 16, reps: int = 3, scale: float = 0.01,
               sim_scale: float = 1.0) -> AblationResult:
    """Compare the three transition strategies under the adaptive mode."""
    result = AblationResult(study="transition strategies")
    for strategy in ("cpu_load", "ht_imc", "useful_load"):
        sut = build_system(engine="monetdb", mode="adaptive",
                           strategy=strategy, scale=scale,
                           sim_scale=sim_scale)
        result.cells[strategy] = _measure(sut, n_clients, reps)
    return result


def autonuma(n_clients: int = 16, reps: int = 3, scale: float = 0.01,
             sim_scale: float = 1.0) -> AblationResult:
    """OS / OS+AutoNUMA / adaptive / adaptive+AutoNUMA."""
    result = AblationResult(study="AutoNUMA page migration")
    balancing = SchedulerConfig(numa_balancing=True)
    configs = [
        ("OS", None, None),
        ("OS+autonuma", None, balancing),
        ("adaptive", "adaptive", None),
        ("adaptive+autonuma", "adaptive", balancing),
    ]
    for label, mode, sched in configs:
        sut = build_system(engine="monetdb", mode=mode, scheduler=sched,
                           scale=scale, sim_scale=sim_scale)
        result.cells[label] = _measure(sut, n_clients, reps)
    return result


def elastic_parallelism(n_clients: int = 16, reps: int = 3,
                        scale: float = 0.01,
                        sim_scale: float = 1.0) -> AblationResult:
    """workers_follow_mask on/off under the adaptive mode, plus the OS."""
    result = AblationResult(study="elastic parallelism")
    sut = build_system(engine="monetdb", mode=None, scale=scale,
                       sim_scale=sim_scale)
    result.cells["OS"] = _measure(sut, n_clients, reps)
    for follow in (True, False):
        sut = build_system(
            engine="monetdb", mode="adaptive",
            engine_config=EngineConfig(workers_follow_mask=follow,
                                       loader_node=0),
            scale=scale, sim_scale=sim_scale)
        label = "adaptive/elastic" if follow else "adaptive/fixed-16"
        result.cells[label] = _measure(sut, n_clients, reps)
    return result
