"""Extension — predicate-aware worker sizing (paper §VII future work).

Runs the mixed 22-query workload under three configurations:

* the plain OS (one worker per core, always);
* the adaptive mechanism (workers follow the visible mask);
* the adaptive mechanism plus the feed-forward sizer, where each query's
  worker pool is additionally bounded by its predicate-shaped footprint.

The claim to quantify: small, selective queries stop paying for sixteen
partitions' worth of administration, so the total dispatch count drops
sharply while throughput holds — the "local optimum with respect to
query predicates" the paper's conclusion sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..config import EngineConfig
from ..workloads.phases import mixed_phases_stream
from .common import build_system


@dataclass(frozen=True)
class PredicateCell:
    """One configuration's outcome."""

    throughput: float
    mean_latency: float
    tasks: float
    threads_spawned: float
    ht_rate: float


@dataclass
class PredicateAwareResult:
    """Cells per configuration label."""

    cells: dict[str, PredicateCell] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[label, cell.throughput, cell.mean_latency,
                 cell.tasks / 1e3, cell.threads_spawned,
                 cell.ht_rate / 1e9]
                for label, cell in self.cells.items()]

    def table(self) -> str:
        """The comparison as a text table."""
        return render_table(
            ["config", "queries/s", "mean lat s", "tasks (k)",
             "threads", "HT GB/s"],
            self.rows(),
            title="Extension - predicate-aware worker sizing")


def run(n_clients: int = 16, queries_per_client: int = 4,
        scale: float = 0.01, sim_scale: float = 1.0,
        seed: int = 7) -> PredicateAwareResult:
    """Mixed workload across the three configurations."""
    result = PredicateAwareResult()
    stream = mixed_phases_stream(queries_per_client, seed=seed)
    configs = [
        ("OS", None, EngineConfig()),
        ("adaptive", "adaptive", EngineConfig()),
        ("adaptive+sizer", "adaptive",
         EngineConfig(predicate_aware=True)),
    ]
    for label, mode, engine_config in configs:
        sut = build_system(engine="monetdb", mode=mode, scale=scale,
                           sim_scale=sim_scale,
                           engine_config=engine_config)
        sut.mark()
        workload = sut.run_clients(n_clients, stream)
        makespan = max(workload.makespan, 1e-9)
        result.cells[label] = PredicateCell(
            throughput=workload.throughput,
            mean_latency=workload.mean_latency(),
            tasks=sut.delta("tasks"),
            threads_spawned=float(sut.os.threads_spawned),
            ht_rate=sut.delta("ht_tx_bytes") / makespan,
        )
    return result
