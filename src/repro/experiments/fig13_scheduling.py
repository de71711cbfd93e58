"""Fig 13 — scheduling metrics vs concurrency for the four modes (§V-A1).

The paper runs the modified Q6 (the ``thetasubselect``-dominated scan) with
1..256 concurrent users under the plain OS and under the mechanism in
dense, sparse and adaptive modes, reporting throughput, CPU load, dispatch
("tasks") counts and stolen tasks.

Expected shapes: similar CPU load and task counts everywhere; the OS
scheduler steals noticeably more tasks than the adaptive mode; adaptive
throughput at least matches the OS at high concurrency.

Measurement protocol: when ``repetitions > 1`` the first repetition is a
*warm-up* under plain OS scheduling — data load, first-touch page
placement, thread spawning — and only the remaining repetitions are
measured with the cell's controller attached.  The warm-up is identical
for all four modes of one user count, so it is simulated once, captured,
and each mode's cell forks from the capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import render_table
from ..db.clients import repeat_stream
from ..sim.state import SimState
from .common import (SystemUnderTest, attach_controller, fork_system,
                     warm_system)

MODES = (None, "dense", "sparse", "adaptive")
DEFAULT_USERS = (1, 4, 16, 64)

#: the paper's modified Q6: a ~45 %-selectivity thetasubselect scan
WORKLOAD_QUERY = "sel_45pct"


@dataclass(frozen=True)
class Fig13Cell:
    """One (mode, users) measurement."""

    throughput: float
    cpu_load: float
    tasks: float
    stolen_tasks: float


@dataclass
class Fig13Result:
    """Cells per mode label and user count."""

    users: tuple[int, ...]
    cells: dict[tuple[str, int], Fig13Cell] = field(default_factory=dict)

    def cell(self, mode: str | None, users: int) -> Fig13Cell:
        """Fetch one cell; ``mode=None`` is the OS baseline."""
        return self.cells[(mode or "OS", users)]

    def rows(self) -> list[list[object]]:
        """Flat rows for rendering."""
        out: list[list[object]] = []
        for (mode, users), cell in self.cells.items():
            out.append([mode, users, cell.throughput, cell.cpu_load,
                        cell.tasks, cell.stolen_tasks])
        return out

    def table(self) -> str:
        """The Fig 13 series as a text table."""
        return render_table(
            ["mode", "users", "queries/s", "CPU load %", "tasks",
             "stolen"],
            self.rows(), title="Fig 13 - thetasubselect vs concurrency")


def _split_repetitions(repetitions: int) -> tuple[int, int]:
    """(warm-up reps, measured reps): one shared warm-up when possible."""
    warmup = 1 if repetitions > 1 else 0
    return warmup, repetitions - warmup


def _measure_cell(sut: SystemUnderTest, users: int,
                  repetitions: int) -> Fig13Cell:
    """The divergent phase: measure one warmed, controller-bearing cell."""
    sut.mark()
    workload = sut.run_clients(
        users, repeat_stream(WORKLOAD_QUERY, repetitions))
    makespan = max(workload.makespan, 1e-9)
    n_cores = sut.os.topology.n_cores
    cpu_load = 100.0 * sut.delta("busy_time") / (makespan * n_cores)
    return Fig13Cell(
        throughput=workload.throughput,
        cpu_load=min(cpu_load, 100.0),
        tasks=sut.delta("tasks"),
        stolen_tasks=sut.delta("stolen_tasks"),
    )


def run_group(users: int, repetitions: int = 4, scale: float = 0.01,
              sim_scale: float = 1.0) -> list[Fig13Cell]:
    """All four modes' cells for one user count, forked from one warmed
    prefix (simulated once instead of once per mode)."""
    base = warm_group_base(users, repetitions, scale, sim_scale)
    measured = _split_repetitions(repetitions)[1]
    return [_measure_cell(attach_controller(fork_system(base), mode),
                          users, measured)
            for mode in MODES]


def warm_group_base(users: int, repetitions: int, scale: float,
                    sim_scale: float) -> SimState:
    """Capture the shared prefix of one user count's four cells."""
    warmup, _ = _split_repetitions(repetitions)
    return warm_system(
        clients=users if warmup else 0,
        stream=repeat_stream(WORKLOAD_QUERY, warmup) if warmup else None,
        scale=scale, sim_scale=sim_scale)


def run_traced(mode: str | None = "adaptive", users: int = 4,
               repetitions: int = 2, scale: float = 0.01,
               sim_scale: float = 1.0) -> tuple[Fig13Cell, list]:
    """One cell plus its full event trace, warm-up included.

    The golden-parity harness: CI runs this once against the seed-pinned
    fixture and diffs the exported trace byte-for-byte, so any change to
    event delivery order — queue refactors included — fails loud.
    """
    base = warm_group_base(users, repetitions, scale, sim_scale)
    sut = attach_controller(fork_system(base), mode)
    cell = _measure_cell(sut, users, _split_repetitions(repetitions)[1])
    return cell, sut.os.tracer.all()


def run(users: tuple[int, ...] = DEFAULT_USERS, repetitions: int = 4,
        scale: float = 0.01, sim_scale: float = 1.0,
        parallel: int = 1) -> Fig13Result:
    """Sweep users for all four scheduling configurations.

    Each user count's four cells fork from one captured warm-up prefix.
    ``parallel > 1`` fans the user counts across worker processes; the
    ordered merge keeps the result identical to a serial run.
    """
    from ..runner.pool import Task, run_tasks

    result = Fig13Result(users=users)
    groups = run_tasks(
        [Task("repro.experiments.fig13_scheduling:run_group",
              dict(users=n, repetitions=repetitions, scale=scale,
                   sim_scale=sim_scale))
         for n in users],
        parallel=parallel)
    # cells are keyed mode-major
    for i, mode in enumerate(MODES):
        for n, group in zip(users, groups):
            result.cells[(mode or "OS", n)] = group[i]
    return result
