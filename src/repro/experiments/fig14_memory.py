"""Fig 14 — memory-access metrics at high concurrency (§V-A1).

The paper reports, for 256 clients running the thetasubselect under the
four scheduling configurations: per-socket L3 load misses (a), per-socket
memory throughput (b) and interconnect traffic (c).

Expected shapes: the OS scheduler moves the most data over the
interconnect; the controlled modes reduce L3 misses and interconnect
traffic; the dense mode leaves the last socket underused (its memory bank
serves little) while the adaptive mode spreads throughput best among the
controlled modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from ..sim.state import SimState
from .common import (SystemUnderTest, attach_controller, fork_system,
                     warm_system)

MODES = (None, "dense", "sparse", "adaptive")
WORKLOAD_QUERY = "sel_45pct"


@dataclass(frozen=True)
class Fig14Cell:
    """One mode's memory picture."""

    l3_misses_by_socket: dict[int, float]
    mem_tp_by_socket: dict[int, float]
    ht_traffic: float
    makespan: float

    @property
    def l3_misses_total(self) -> float:
        """Machine-wide L3 misses."""
        return sum(self.l3_misses_by_socket.values())

    @property
    def ht_rate(self) -> float:
        """Interconnect bytes per second over the run."""
        return self.ht_traffic / max(self.makespan, 1e-9)


@dataclass
class Fig14Result:
    """Cells per mode label."""

    n_clients: int
    cells: dict[str, Fig14Cell] = field(default_factory=dict)

    def cell(self, mode: str | None) -> Fig14Cell:
        """Fetch one mode's cell; ``None`` is the OS baseline."""
        return self.cells[mode or "OS"]

    def rows(self) -> list[list[object]]:
        """One row per (mode, socket) plus interconnect totals."""
        out: list[list[object]] = []
        for mode, cell in self.cells.items():
            for socket in sorted(cell.mem_tp_by_socket):
                out.append([
                    mode, socket,
                    cell.l3_misses_by_socket.get(socket, 0.0) / 1e3,
                    cell.mem_tp_by_socket[socket] / 1e9,
                    cell.ht_rate / 1e9,
                ])
        return out

    def table(self) -> str:
        """The Fig 14 series as a text table."""
        return render_table(
            ["mode", "socket", "L3 misses (k)", "mem GB/s", "HT GB/s"],
            self.rows(),
            title=f"Fig 14 - memory metrics, {self.n_clients} clients")


def _measure_cell(sut: SystemUnderTest, mode: str | None,
                  n_clients: int, repetitions: int) -> Fig14Cell:
    """Attach ``mode`` and measure one cell's memory picture."""
    attach_controller(sut, mode)
    sut.mark()
    workload = sut.run_clients(
        n_clients, repeat_stream(WORKLOAD_QUERY, repetitions))
    makespan = max(workload.makespan, 1e-9)
    sockets = list(sut.os.topology.all_nodes())
    return Fig14Cell(
        l3_misses_by_socket={
            s: sut.delta("l3_miss", s) for s in sockets},
        mem_tp_by_socket={
            s: sut.delta("imc_bytes", s) / makespan for s in sockets},
        ht_traffic=sut.delta("ht_tx_bytes"),
        makespan=makespan,
    )


def run_cell_warm(base: SimState, mode: str | None, n_clients: int = 32,
                  repetitions: int = 3) -> Fig14Cell:
    """One mode's cell forked from a captured build prefix."""
    return _measure_cell(fork_system(base), mode, n_clients, repetitions)


def run(n_clients: int = 32, repetitions: int = 3, scale: float = 0.01,
        sim_scale: float = 1.0, parallel: int = 1) -> Fig14Result:
    """High-concurrency thetasubselect across the four configurations.

    The workload itself is mode-dependent from the first repetition, so
    the shared prefix is the build stage (data load + registration): it
    is built once, captured, and the four cells fork from the capture.
    """
    from ..runner.pool import Task, run_tasks

    result = Fig14Result(n_clients=n_clients)
    base = warm_system(scale=scale, sim_scale=sim_scale)
    cells = run_tasks(
        [Task("repro.experiments.fig14_memory:run_cell_warm",
              dict(base=base, mode=mode, n_clients=n_clients,
                   repetitions=repetitions))
         for mode in MODES],
        parallel=parallel)
    for mode, cell in zip(MODES, cells):
        result.cells[mode or "OS"] = cell
    return result
