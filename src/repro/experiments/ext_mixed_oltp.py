"""Extension — mixed OLAP/OLTP co-scheduling (paper §VII future work).

The paper proposes letting concurrent applications benefit from the cores
the mechanism leaves unallocated.  This experiment runs:

* an **OLAP tenant**: the MonetDB-like engine under the elastic mechanism
  (or the plain OS as baseline), driven by concurrent scan queries;
* an **OLTP tenant**: a co-located application *outside* the database
  cgroup — single-worker point lookups whose threads may use any core,
  including the ones the mechanism released.

With the OS baseline the OLAP engine's workers occupy every core and the
point queries queue behind them.  Under the mechanism the unallocated
cores form a quiet harbour for the OLTP tenant, cutting its latency while
OLAP throughput stays comparable — the claim this harness quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.metrics import percentile
from ..analysis.report import render_table
from ..config import EngineConfig
from ..db.clients import ClientPool, repeat_stream
from ..db.engine import DatabaseEngine
from ..workloads.oltp import oltp_stream, register_point_queries
from .common import build_system


@dataclass(frozen=True)
class MixedCell:
    """One configuration's outcome for both tenants."""

    olap_throughput: float
    olap_mean_latency: float
    oltp_throughput: float
    oltp_mean_latency: float
    oltp_p_high: float
    mean_cores: float


@dataclass
class MixedOltpResult:
    """Cells per configuration label."""

    cells: dict[str, MixedCell] = field(default_factory=dict)

    def cell(self, mode: str | None) -> MixedCell:
        """Fetch one configuration's cell."""
        return self.cells[mode or "OS"]

    def oltp_latency_improvement(self, mode: str = "adaptive") -> float:
        """OS-over-mode OLTP latency ratio (>1 = mode helps OLTP)."""
        baseline = self.cell(None).oltp_mean_latency
        improved = self.cell(mode).oltp_mean_latency
        if baseline <= 0 or improved <= 0:
            return 1.0
        return baseline / improved

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[mode, cell.olap_throughput, cell.olap_mean_latency,
                 cell.oltp_throughput, cell.oltp_mean_latency * 1e3,
                 cell.oltp_p_high * 1e3, cell.mean_cores]
                for mode, cell in self.cells.items()]

    def table(self) -> str:
        """The mixed-tenancy comparison as a text table."""
        return render_table(
            ["config", "OLAP q/s", "OLAP lat s", "OLTP q/s",
             "OLTP lat ms", "OLTP p90 ms", "DB cores"],
            self.rows(),
            title="Extension - mixed OLAP/OLTP co-scheduling")


def run(modes: tuple = (None, "adaptive"), olap_clients: int = 16,
        olap_reps: int = 3, oltp_clients: int = 8,
        oltp_queries_per_client: int = 40, scale: float = 0.01,
        sim_scale: float = 1.0) -> MixedOltpResult:
    """Run both tenants concurrently under each configuration."""
    result = MixedOltpResult()
    for mode in modes:
        sut = build_system(engine="monetdb", mode=mode, scale=scale,
                           sim_scale=sim_scale)
        # the co-located OLTP application: own engine object over the
        # same loaded catalog, threads outside the DB cgroup
        oltp_engine = DatabaseEngine(
            sut.os, sut.engine.catalog, sut.dataset.byte_scale,
            EngineConfig(workers_follow_mask=False, loader_node=0,
                         managed_threads=False, max_workers=1),
            name="oltp-app")
        names = register_point_queries(oltp_engine, n_distinct=12)

        olap_pool = ClientPool(sut.engine, olap_clients,
                               repeat_stream("sel_45pct", olap_reps))
        oltp_pool = ClientPool(
            oltp_engine, oltp_clients,
            oltp_stream(names, oltp_queries_per_client))
        olap_result = olap_pool.start()
        oltp_result = oltp_pool.start()
        sut.os.run_until_idle()
        olap_result.finished_at = oltp_result.finished_at = sut.os.now

        mean_cores = (sut.controller.lonc_report().mean_cores
                      if sut.controller else
                      float(sut.os.topology.n_cores))
        result.cells[mode or "OS"] = MixedCell(
            olap_throughput=olap_result.throughput,
            olap_mean_latency=olap_result.mean_latency(),
            oltp_throughput=oltp_result.throughput,
            oltp_mean_latency=oltp_result.mean_latency(),
            oltp_p_high=percentile(oltp_result.latencies(), 0.9),
            mean_cores=mean_cores,
        )
    return result
