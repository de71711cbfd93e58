"""Fig 16 — thread migration maps for all four configurations (§V-A3).

Single-client Q6, full plan, comparing where workers run and how often
they migrate under the OS scheduler and under the mechanism's three modes.

Expected shapes: the OS migrates workers across many cores and nodes; the
dense and adaptive modes confine workers to very few nodes with far fewer
migrations; sparse spreads threads but still migrates less than the OS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from ..sim.state import SimState
from ..sim.tracing import MigrationRecord
from .common import (SystemUnderTest, attach_controller, fork_system,
                     warm_system)
from .fig05_migration_os import ThreadTimeline, collect_timelines

MODES = (None, "dense", "sparse", "adaptive")


@dataclass(frozen=True)
class Fig16Cell:
    """One configuration's migration picture."""

    timelines: list[ThreadTimeline]
    migrations: int
    nodes_used: int
    elapsed: float
    #: every trace record of the traced repetitions, exportable via
    #: :func:`repro.sim.export.dump_records` (golden-trace regression)
    records: tuple[object, ...] = ()


@dataclass
class Fig16Result:
    """Cells per mode label."""

    cells: dict[str, Fig16Cell] = field(default_factory=dict)

    def cell(self, mode: str | None) -> Fig16Cell:
        """Fetch one configuration's cell."""
        return self.cells[mode or "OS"]

    def rows(self) -> list[list[object]]:
        """One row per configuration."""
        return [[mode, cell.migrations, cell.nodes_used,
                 len(cell.timelines), cell.elapsed * 1e3]
                for mode, cell in self.cells.items()]

    def table(self) -> str:
        """The Fig 16 comparison as a text table."""
        return render_table(
            ["mode", "migrations", "nodes used", "threads", "elapsed ms"],
            self.rows(), title="Fig 16 - single-client Q6 migration maps")


def _measure_cell(sut: SystemUnderTest, mode: str | None,
                  repetitions: int, warmup: int) -> Fig16Cell:
    """Attach ``mode``, warm the controller, then trace."""
    attach_controller(sut, mode)
    if warmup:
        sut.run_clients(1, repeat_stream("q6", warmup))
        sut.os.tracer.clear()
    workload = sut.run_clients(1, repeat_stream("q6", repetitions))
    timelines = collect_timelines(sut)
    nodes = {node for t in timelines for node in t.nodes_visited}
    return Fig16Cell(
        timelines=timelines,
        migrations=len(sut.os.tracer.of(MigrationRecord)),
        nodes_used=len(nodes),
        elapsed=workload.makespan,
        records=tuple(sut.os.tracer.all()),
    )


def run_cell_warm(base: SimState, mode: str | None, repetitions: int = 2,
                  warmup: int = 4) -> Fig16Cell:
    """Trace one configuration forked from a captured build prefix."""
    return _measure_cell(fork_system(base), mode, repetitions, warmup)


def run(repetitions: int = 2, warmup: int = 4, scale: float = 0.01,
        sim_scale: float = 1.0, parallel: int = 1) -> Fig16Result:
    """Trace single-client Q6 under each configuration.

    ``warmup`` repetitions let the controller reach its steady allocation
    before tracing starts (the paper's runs are similarly warm); being
    controller-driven they are mode-specific, so the cells fork from a
    capture of the build stage only.  The ordered merge keeps the
    exported trace records the same serially and under ``--parallel``
    (the golden-trace fixture pins this).
    """
    from ..runner.pool import Task, run_tasks

    result = Fig16Result()
    base = warm_system(scale=scale, sim_scale=sim_scale,
                       record_placements=True)
    cells = run_tasks(
        [Task("repro.experiments.fig16_migration_modes:run_cell_warm",
              dict(base=base, mode=mode, repetitions=repetitions,
                   warmup=warmup))
         for mode in MODES],
        parallel=parallel)
    for mode, cell in zip(MODES, cells):
        result.cells[mode or "OS"] = cell
    return result
