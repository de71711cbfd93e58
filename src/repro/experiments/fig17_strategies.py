"""Fig 17 — CPU-load vs HT/IMC state-transition strategies (§V-B).

Single-client Q6 under the OS and the three modes, each mode driven once
by the CPU-load strategy (``thmin=10, thmax=70``) and once by the HT/IMC
ratio strategy (``0.1 / 0.4``).  Reported: response time, interconnect
traffic and per-socket L3 misses.

Expected shapes: the controlled modes cut interconnect traffic and L3
misses sharply versus the OS; the adaptive/CPU-load combination is the
fastest; the HT/IMC strategy behaves similarly but reacts more slowly,
costing some response time and extra misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from ..sim.state import SimState
from .common import attach_controller, fork_system, warm_system

MODES = ("dense", "sparse", "adaptive")
STRATEGIES = ("cpu_load", "ht_imc")


@dataclass(frozen=True)
class Fig17Cell:
    """One (mode, strategy) measurement."""

    response_time: float
    ht_bytes: float
    l3_by_socket: dict[int, float]

    @property
    def l3_total(self) -> float:
        """Machine-wide L3 misses."""
        return sum(self.l3_by_socket.values())


@dataclass
class Fig17Result:
    """Cells keyed by (mode, strategy); the OS baseline is ("OS", "-")."""

    cells: dict[tuple[str, str], Fig17Cell] = field(default_factory=dict)

    def cell(self, mode: str | None,
             strategy: str = "cpu_load") -> Fig17Cell:
        """Fetch one cell (``mode=None`` -> the OS baseline)."""
        if mode is None:
            return self.cells[("OS", "-")]
        return self.cells[(mode, strategy)]

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[mode, strategy, cell.response_time * 1e3,
                 cell.ht_bytes / 1e6, cell.l3_total / 1e3]
                for (mode, strategy), cell in self.cells.items()]

    def table(self) -> str:
        """The Fig 17 comparison as a text table."""
        return render_table(
            ["mode", "strategy", "response ms", "HT MB", "L3 misses (k)"],
            self.rows(),
            title="Fig 17 - transition strategies on single-client Q6")


def _measure(sut, repetitions: int, warmup: int) -> Fig17Cell:
    """Warm the controller to its steady allocation, then measure."""
    if warmup:
        sut.run_clients(1, repeat_stream("q6", warmup))
    sut.mark()
    workload = sut.run_clients(1, repeat_stream("q6", repetitions))
    return Fig17Cell(
        response_time=workload.mean_latency(),
        ht_bytes=sut.delta("ht_tx_bytes"),
        l3_by_socket={s: sut.delta("l3_miss", s)
                      for s in sut.os.topology.all_nodes()},
    )


def run_cell_warm(base: SimState, mode: str | None,
                  strategy: str = "cpu_load", repetitions: int = 3,
                  warmup: int = 5) -> Fig17Cell:
    """One configuration cell forked from a captured build prefix."""
    sut = fork_system(base)
    attach_controller(sut, mode,
                      strategy=strategy if mode else "cpu_load")
    return _measure(sut, repetitions, warmup)


def run(repetitions: int = 3, warmup: int = 5, scale: float = 0.01,
        sim_scale: float = 1.0, parallel: int = 1) -> Fig17Result:
    """Run the OS baseline plus each (mode, strategy) pair.

    The warm-up phase runs under each cell's own (mode, strategy)
    controller, so the shared prefix is the build stage: one built
    system is captured and all seven cells fork from it.
    """
    from ..runner.pool import Task, run_tasks

    result = Fig17Result()
    keys: list[tuple[str | None, str]] = [(None, "-")]
    keys.extend((mode, strategy) for strategy in STRATEGIES
                for mode in MODES)
    base = warm_system(scale=scale, sim_scale=sim_scale)
    cells = run_tasks(
        [Task("repro.experiments.fig17_strategies:run_cell_warm",
              dict(base=base, mode=mode, strategy=strategy,
                   repetitions=repetitions, warmup=warmup))
         for mode, strategy in keys],
        parallel=parallel)
    for (mode, strategy), cell in zip(keys, cells):
        result.cells[(mode or "OS", strategy)] = cell
    return result
