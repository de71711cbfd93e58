"""Fig 15 — L3 misses across selectivities for the four modes (§V-A2).

The paper sweeps the thetasubselect's selectivity from 2 % to 100 % with
256 concurrent clients and reports per-socket L3 load misses for the OS
scheduler and the three controlled modes.

Expected shapes: misses grow with selectivity everywhere (more data is
materialised); the OS scheduler spikes once the materialised result stops
fitting the caches (beyond roughly two-thirds selectivity), while the
controlled modes stay at or below the OS's miss counts even at 100 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from ..sim.state import SimState
from ..workloads.selectivity import SELECTIVITY_LEVELS, selectivity_name
from .common import (SystemUnderTest, attach_controller, fork_system,
                     warm_system)

MODES = (None, "dense", "sparse", "adaptive")


@dataclass
class Fig15Result:
    """L3 misses per (mode, selectivity level), split by socket."""

    levels: tuple[float, ...]
    n_clients: int
    misses: dict[tuple[str, float], dict[int, float]] \
        = field(default_factory=dict)

    def total(self, mode: str | None, level: float) -> float:
        """Machine-wide L3 misses for one cell."""
        return sum(self.misses[(mode or "OS", level)].values())

    def rows(self) -> list[list[object]]:
        """One row per (mode, level)."""
        out: list[list[object]] = []
        for (mode, level), by_socket in self.misses.items():
            row: list[object] = [mode, f"{level:.0%}"]
            row.extend(by_socket.get(s, 0.0) / 1e3
                       for s in sorted(by_socket))
            row.append(sum(by_socket.values()) / 1e3)
            out.append(row)
        return out

    def table(self) -> str:
        """The Fig 15 series as a text table."""
        sockets = sorted(next(iter(self.misses.values())))
        headers = ["mode", "selectivity"]
        headers.extend(f"S{s} (k)" for s in sockets)
        headers.append("total (k)")
        return render_table(headers, self.rows(),
                            title=(f"Fig 15 - L3 misses vs selectivity, "
                                   f"{self.n_clients} clients"))


def _measure_cell(sut: SystemUnderTest, mode: str | None, level: float,
                  n_clients: int, repetitions: int) -> dict[int, float]:
    """Attach ``mode`` and measure one (mode, selectivity) cell."""
    attach_controller(sut, mode)
    sut.mark()
    sut.run_clients(
        n_clients, repeat_stream(selectivity_name(level), repetitions))
    return {s: sut.delta("l3_miss", s)
            for s in sut.os.topology.all_nodes()}


def run_cell_warm(base: SimState, mode: str | None, level: float,
                  n_clients: int = 16,
                  repetitions: int = 1) -> dict[int, float]:
    """One (mode, selectivity) cell forked from a captured build prefix."""
    return _measure_cell(fork_system(base), mode, level, n_clients,
                         repetitions)


def run(levels: tuple[float, ...] = SELECTIVITY_LEVELS,
        n_clients: int = 16, repetitions: int = 1, scale: float = 0.01,
        sim_scale: float = 1.0, parallel: int = 1) -> Fig15Result:
    """Sweep selectivity for each scheduling configuration.

    Both the query and the controller differ per cell, so the shared
    prefix is the build stage: one built system is captured and every
    (mode, level) cell forks from it.
    """
    from ..runner.pool import Task, run_tasks

    result = Fig15Result(levels=levels, n_clients=n_clients)
    keys = [(mode, level) for mode in MODES for level in levels]
    base = warm_system(scale=scale, sim_scale=sim_scale)
    cells = run_tasks(
        [Task("repro.experiments.fig15_selectivity:run_cell_warm",
              dict(base=base, mode=mode, level=level,
                   n_clients=n_clients, repetitions=repetitions))
         for mode, level in keys],
        parallel=parallel)
    for (mode, level), by_socket in zip(keys, cells):
        result.misses[(mode or "OS", level)] = by_socket
    return result
