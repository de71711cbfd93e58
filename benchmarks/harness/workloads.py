"""The four benchmark workloads, built from the library's public entry points.

Every workload is a list of *cells*.  A cell is one (mode, users)
measurement, or one fan-out call, and the harness times cells one at a
time.  All simulated clients are closed-loop with zero think time, as in
the paper's protocol.  ``--seed`` is both the dataset seed and the
query-stream seed.

Why these four (see README.md for the layer each one loads):

* ``q6-concurrency`` - the paper's headline experiment (fig 13) at its
  concurrency, up to 256 clients x 16 workers.  Contiguous-range page
  paths, dispatch and balancing, snapshot forking and the controller all
  carry load.
* ``tpch-mixed`` - fig 19: the only workload whose joins and aggregates
  write intermediates and read multi-segment footprints, and which
  profiles and compiles all 22 plans.  It never forks.
* ``c-kernel-strided`` - fig 4: plain page-list footprints, so the scalar
  per-page touch loops dominate; no controller and no fork, so it is the
  bypass workload for both.
* ``fanout-p2`` - fig 14/16/17 cells forked from captured build prefixes
  and fanned over two spawn workers: the only user of the worker pool and
  the shared-memory atom store.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.db.clients import repeat_stream
from repro.experiments import common
from repro.experiments.fig17_strategies import MODES as FIG17_MODES
from repro.experiments.fig17_strategies import STRATEGIES as FIG17_STRATEGIES
from repro.opsys.system import OperatingSystem
from repro.runner.pool import PoolStats, Task, run_tasks
from repro.sim.tracing import PlacementRecord, TraceRecorder
from repro.workloads import microbench
from repro.workloads.tpch.queries import QUERY_NAMES

#: scheduling configurations; ``None`` is the plain OS
MODES = (None, "dense", "sparse", "adaptive")

#: the paper's modified Q6: a ~45 %-selectivity thetasubselect scan
Q6_QUERY = "sel_45pct"

#: worker processes of the fan-out workload; fixed (it equals the core
#: count of the 2-vCPU calibration host) so results compare across hosts
PARALLEL = 2


@dataclass
class CellOutcome:
    """What one cell produced.

    ``parts`` are plain results, each digested on its own.  ``submitted``
    and ``completed`` count queries that did not pass through
    ``SystemUnderTest.run_clients`` in this process (kernel runs, pool
    workers); the :class:`ClientLedger` counts the rest.  ``systems``
    are the (os, controller) pairs the validator checks after the cell.
    """

    parts: tuple
    submitted: int = 0
    completed: int = 0
    dispatches: int = 0
    steals: int = 0
    systems: tuple = ()
    pool: PoolStats | None = None


@dataclass(frozen=True)
class Cell:
    """One timed unit of a workload pass."""

    id: str
    run: Callable[[], CellOutcome]
    #: runs worker processes on every core (timed as in measure.py)
    pooled: bool = False


@dataclass(frozen=True)
class Workload:
    """A named list of cells plus how the harness sizes and checks it."""

    name: str
    #: timed passes when neither ``--passes`` nor ``--seconds`` is given
    passes: int
    #: registered queries whose profiles set-up builds
    queries: tuple[str, ...]
    cells: Callable[[int, bool], list[Cell]]
    #: serial recomputation of the fan-out: (seed, smoke) -> parts
    recheck: Callable[[int, bool], tuple] | None = None


def _mode_label(mode: str | None) -> str:
    return mode or "OS"


def _systems(*suts) -> tuple:
    return tuple((sut.os, sut.controller) for sut in suts)


# ----------------------------------------------------------------------
# client accounting


@dataclass
class ClientLedger:
    """Counts every ``SystemUnderTest.run_clients`` call in this process.

    Installed for the whole run: it is how queries run inside library
    helpers (``warm_system``'s warm-up, the fan-out cells when recomputed
    serially) are counted and checked for completion.  Its cost is two
    counter reads per client-pool run.
    """

    submitted: int = 0
    completed: int = 0
    dispatches: int = 0
    steals: int = 0
    _original: Callable | None = field(default=None, repr=False)

    def take(self) -> tuple[int, int, int, int]:
        """Counts since the last take; resets them."""
        counts = (self.submitted, self.completed, self.dispatches,
                  self.steals)
        self.submitted = self.completed = 0
        self.dispatches = self.steals = 0
        return counts

    def install(self) -> None:
        if self._original is not None:
            return
        original = common.SystemUnderTest.run_clients
        self._original = original
        ledger = self

        def run_clients(sut, n_clients, stream):
            submitted = sum(len(list(stream(client)))
                            for client in range(n_clients))
            counters = sut.os.counters
            tasks = counters.total("tasks")
            stolen = counters.total("stolen_tasks")
            result = original(sut, n_clients, stream)
            ledger.submitted += submitted
            ledger.completed += result.queries_completed
            ledger.dispatches += int(counters.total("tasks") - tasks)
            ledger.steals += int(counters.total("stolen_tasks") - stolen)
            return result

        common.SystemUnderTest.run_clients = run_clients

    def uninstall(self) -> None:
        if self._original is not None:
            common.SystemUnderTest.run_clients = self._original
            self._original = None


# ----------------------------------------------------------------------
# q6-concurrency: fig 13 at the paper's concurrency


def _q6_cell(seed: int, users: int, mode: str | None,
             bases: dict) -> CellOutcome:
    if mode is None:
        # one OS warm-up per user count, captured once and forked into
        # every mode (the fig 13 warm-start protocol); the capture is
        # timed as part of the group's first cell
        bases.clear()
        bases[users] = common.warm_system(
            clients=users, stream=repeat_stream(Q6_QUERY, 1), seed=seed)
    sut = common.attach_controller(common.fork_system(bases[users]), mode)
    sut.mark()
    result = sut.run_clients(users, repeat_stream(Q6_QUERY, 1))
    return CellOutcome(
        parts=((users, _mode_label(mode), tuple(result.completions),
                result.makespan, sut.delta("tasks"),
                sut.delta("stolen_tasks"), sut.delta("busy_time")),),
        systems=_systems(sut))


def _q6_cells(seed: int, smoke: bool) -> list[Cell]:
    users = (1, 4) if smoke else (1, 16, 64, 256)
    bases: dict[int, object] = {}
    return [Cell(f"u{n}/{_mode_label(mode)}",
                 lambda n=n, mode=mode: _q6_cell(seed, n, mode, bases))
            for n in users for mode in MODES]


# ----------------------------------------------------------------------
# tpch-mixed: fig 19


def tpch_stream(seed: int, clients: int,
                per_client: int) -> Callable[[int], list[str]]:
    """Each client's queries: one row of a fixed schedule, picked by seed.

    The schedule deals the first ``clients * per_client`` cards of three
    copies of q1..q22 (at full size: q21 and q22 twice, the rest three
    times), shuffled once with a fixed seed, into rows of ``per_client``;
    the seed permutes which client runs which row.  Letting the seed
    reshuffle the deck itself moved the simulated work by up to 4 %
    between seeds (80.8k to 84.3k events per pass), which throughput
    would report as a speed change; permuting whole rows keeps the mix
    and which queries run back to back (events within 0.3 %).
    """
    deck = (list(QUERY_NAMES) * 3)[:clients * per_client]
    random.Random(0).shuffle(deck)
    rows = [deck[row * per_client:(row + 1) * per_client]
            for row in range(clients)]
    random.Random(seed).shuffle(rows)
    return lambda client: rows[client]


def _tpch_cells(seed: int, smoke: bool) -> list[Cell]:
    clients, per_client = (4, 2) if smoke else (16, 4)
    stream = tpch_stream(seed, clients, per_client)

    def run(mode: str | None) -> CellOutcome:
        sut = common.build_system(mode=mode, seed=seed)
        sut.mark()
        result = sut.run_clients(clients, stream)
        return CellOutcome(
            parts=((_mode_label(mode), tuple(result.completions),
                    result.makespan, sut.delta("imc_bytes"),
                    sut.delta("ht_tx_bytes")),),
            systems=_systems(sut))

    return [Cell(_mode_label(mode), lambda mode=mode: run(mode))
            for mode in MODES]


# ----------------------------------------------------------------------
# c-kernel-strided: fig 4


def _kernel_cell(seed: int, affinity: str, users: int,
                 repetitions: int) -> CellOutcome:
    """The hand-coded Q6 kernel on a freshly loaded machine."""
    tracer = TraceRecorder()
    tracer.mute(PlacementRecord)
    os_ = OperatingSystem(tracer=tracer)
    catalog = common.dataset_for(seed=seed).catalog()
    catalog.load(os_.vm, policy="single_node", loader_node=0)
    os_.counters.reset()
    result = microbench.run_q6_kernel(
        os_, catalog.table("lineitem"), users, repetitions=repetitions,
        affinity=affinity)
    counters = os_.counters
    return CellOutcome(
        parts=((affinity, users, result.makespan, result.queries_completed,
                counters.total("minor_faults"),
                counters.total("ht_tx_bytes")),),
        submitted=users * repetitions,
        completed=result.queries_completed,
        dispatches=int(counters.total("tasks")),
        steals=int(counters.total("stolen_tasks")),
        systems=((os_, None),))


def _engine_cell(seed: int, users: int, repetitions: int) -> CellOutcome:
    """OS-scheduled MonetDB Q6 on a cold build."""
    sut = common.build_system(seed=seed)
    sut.mark()
    result = sut.run_clients(users, repeat_stream("q6", repetitions))
    return CellOutcome(
        parts=(("monetdb", users, tuple(result.completions),
                result.makespan, sut.delta("minor_faults"),
                sut.delta("ht_tx_bytes")),),
        systems=_systems(sut))


def _kernel_cells(seed: int, smoke: bool) -> list[Cell]:
    users = (1, 4) if smoke else (1, 4, 16, 64)
    repetitions = 2
    cells = []
    for affinity in microbench.AFFINITIES:
        for n in users:
            cells.append(Cell(
                f"{affinity}-C/u{n}",
                lambda a=affinity, n=n: _kernel_cell(seed, a, n,
                                                     repetitions)))
    for n in users:
        cells.append(Cell(f"os-monetdb/u{n}",
                          lambda n=n: _engine_cell(seed, n, repetitions)))
    return cells


# ----------------------------------------------------------------------
# fanout-p2: fig 14/16/17 cells over the spawn pool


def _fanout_tasks(seed: int, smoke: bool) -> tuple[list[Task], int]:
    """The 15 fan-out tasks and the queries they run."""
    base = common.warm_system(seed=seed)
    placements_base = common.warm_system(seed=seed, record_placements=True)
    clients, reps14 = (4, 1) if smoke else (32, 3)
    warm16, reps16 = (1, 1) if smoke else (4, 2)
    warm17, reps17 = (1, 1) if smoke else (5, 3)
    tasks = [Task("repro.experiments.fig14_memory:run_cell_warm",
                  dict(base=base, mode=mode, n_clients=clients,
                       repetitions=reps14))
             for mode in MODES]
    tasks += [Task("repro.experiments.fig16_migration_modes:run_cell_warm",
                   dict(base=placements_base, mode=mode,
                        repetitions=reps16, warmup=warm16))
              for mode in MODES]
    keys = [(None, "cpu_load")]
    keys += [(mode, strategy) for strategy in FIG17_STRATEGIES
             for mode in FIG17_MODES]
    tasks += [Task("repro.experiments.fig17_strategies:run_cell_warm",
                   dict(base=base, mode=mode, strategy=strategy,
                        repetitions=reps17, warmup=warm17))
              for mode, strategy in keys]
    queries = (len(MODES) * clients * reps14
               + len(MODES) * (warm16 + reps16)
               + len(keys) * (warm17 + reps17))
    return tasks, queries


def _fanout_cells(seed: int, smoke: bool) -> list[Cell]:
    def run() -> CellOutcome:
        tasks, queries = _fanout_tasks(seed, smoke)
        stats = PoolStats()
        results = run_tasks(tasks, parallel=PARALLEL, cache=False,
                            stats=stats)
        # the workers' client pools are out of this process's sight:
        # completion is checked when the harness recomputes serially
        return CellOutcome(parts=tuple(results), submitted=queries,
                           completed=queries, pool=stats)

    return [Cell("run_tasks", run, pooled=True)]


def _fanout_recheck(seed: int, smoke: bool) -> tuple:
    tasks, _ = _fanout_tasks(seed, smoke)
    return tuple(run_tasks(tasks, parallel=1, cache=False))


# ----------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("q6-concurrency", passes=6, queries=(Q6_QUERY,),
             cells=_q6_cells),
    Workload("tpch-mixed", passes=5, queries=tuple(QUERY_NAMES),
             cells=_tpch_cells),
    Workload("c-kernel-strided", passes=11, queries=("q6",),
             cells=_kernel_cells),
    Workload("fanout-p2", passes=13, queries=(Q6_QUERY, "q6"),
             cells=_fanout_cells, recheck=_fanout_recheck),
)}


def prepare(workload: Workload, seed: int) -> None:
    """Set-up: generate the dataset, run the first build, profile every
    query the workload uses."""
    sut = common.build_system(seed=seed)
    for name in workload.queries:
        sut.engine.profile(name)
