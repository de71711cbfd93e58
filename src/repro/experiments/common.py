"""Shared plumbing for the per-figure experiment harnesses.

:func:`build_system` assembles one complete system under test — simulated
machine, OS, database engine, registered TPC-H queries and (optionally) the
elastic controller — from short string specs, so every harness reads like
the experiment description in the paper:

    sut = build_system(engine="monetdb", mode="adaptive")
    result = sut.run_clients(n_clients=256, stream=repeat_stream("q6", 1))

Sweep harnesses share their warm-up prefix through the snapshot/fork
trio: :func:`warm_system` builds (and optionally warms) one controllerless
system and captures it as a :class:`~repro.sim.SimState`,
:func:`fork_system` materialises independent copies — one per sweep
cell — and :func:`attach_controller` puts each cell's mode on its fork:

    base = warm_system(clients=16, stream=repeat_stream("q6", 1))
    for mode in (None, "dense", "sparse", "adaptive"):
        sut = attach_controller(fork_system(base), mode)
        ...measure sut...

Forked cells are bit-identical to cold runs that re-simulate the prefix
from scratch (golden traces and property tests pin this), and the
captured base pickles across the ``repro run --parallel N`` spawn pool.
Every fig13–17 sweep cell is built this way.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..config import (ControllerConfig, EngineConfig, MachineConfig,
                      SchedulerConfig)
from ..core import ElasticController, make_mode, make_strategy
from ..core.strategies import TransitionStrategy
from ..db.cost import CostModel
from ..db.clients import ClientPool, WorkloadResult, repeat_stream
from ..db.engine import DatabaseEngine, MonetDBLike
from ..db.morsel import MorselEngine
from ..db.numa_aware import NumaAwareEngine
from ..errors import ConfigError
from ..hardware.counters import CounterSnapshot
from ..hardware.prebuilt import opteron_8387
from ..opsys.system import OperatingSystem
from ..sim.state import SimState
from ..sim.tracing import PlacementRecord, TraceRecorder
from ..workloads.selectivity import (SELECTIVITY_LEVELS, selectivity_name,
                                     selectivity_query)
from ..workloads.tpch import build_queries, generate
from ..workloads.tpch.datagen import TpchDataset

#: dataset cache — generation and profiling dominate harness start-up, and
#: datasets are immutable, so share them across systems under test
_DATASETS: dict[tuple[float, float, int], TpchDataset] = {}


def dataset_for(scale: float = 0.01, sim_scale: float = 1.0,
                seed: int = 42) -> TpchDataset:
    """Generate (or fetch the cached) TPC-H dataset."""
    key = (scale, sim_scale, seed)
    if key not in _DATASETS:
        _DATASETS[key] = generate(scale=scale, sim_scale=sim_scale,
                                  seed=seed)
    return _DATASETS[key]


@dataclass
class SystemUnderTest:
    """One assembled machine + engine + (optional) controller."""

    os: OperatingSystem
    engine: DatabaseEngine
    controller: ElasticController | None
    dataset: TpchDataset
    mode_name: str | None
    _baseline: CounterSnapshot | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        """Display label, e.g. ``monetdb/adaptive`` or ``monetdb/OS``."""
        return f"{self.engine.name}/{self.mode_name or 'OS'}"

    # ------------------------------------------------------------------

    def mark(self) -> None:
        """Snapshot counters; deltas are measured from the last mark."""
        self._baseline = self.os.counters.snapshot(self.os.now)

    def delta(self, name: str, index=None) -> float:
        """Counter increase since the last :meth:`mark` (whole family when
        ``index`` is omitted)."""
        current = self.os.counters.snapshot(self.os.now)
        if self._baseline is None:
            if index is None:
                return current.total(name)
            return current.get(name, index)
        if index is None:
            return current.delta_total(self._baseline, name)
        return current.delta(self._baseline, name, index)

    # ------------------------------------------------------------------

    def run_clients(self, n_clients: int,
                    stream: Callable[[int], Iterable[str]],
                    ) -> WorkloadResult:
        """Run one closed-loop client pool to completion."""
        pool = ClientPool(self.engine, n_clients, stream)
        result = pool.run()
        if self.controller is not None:
            self.controller.kick()
        return result

    def run_phases(self, phases: Iterable[str], n_clients: int,
                   repetitions: int = 1) -> list[WorkloadResult]:
        """The paper's stable-phases protocol: every phase is all clients
        running one query ``repetitions`` times, draining in between."""
        results = []
        for query_name in phases:
            results.append(self.run_clients(
                n_clients, repeat_stream(query_name, repetitions)))
        return results

    def ht_imc_ratio(self) -> float:
        """HT/IMC traffic ratio since the last mark."""
        imc = self.delta("imc_bytes")
        if imc <= 0:
            return 0.0
        return self.delta("ht_tx_bytes") / imc

    def query_ht_imc_ratio(self, query_name: str) -> float:
        """Per-query HT/IMC ratio since the last mark (Fig 19's metric)."""
        imc = self.delta("query_imc_bytes", query_name)
        if imc <= 0:
            return 0.0
        return self.delta("query_ht_bytes", query_name) / imc


def build_system(engine: str = "monetdb",
                 mode: str | None = None,
                 strategy: str | TransitionStrategy = "cpu_load",
                 scale: float = 0.01,
                 sim_scale: float = 1.0,
                 seed: int = 42,
                 register: str = "tpch",
                 machine: MachineConfig | None = None,
                 scheduler: SchedulerConfig | None = None,
                 controller: ControllerConfig | None = None,
                 engine_config: EngineConfig | None = None,
                 cost_model: CostModel | None = None,
                 record_placements: bool = False,
                 keepalive: bool = False,
                 obs=None) -> SystemUnderTest:
    """Assemble a complete system under test.

    Parameters
    ----------
    engine:
        ``"monetdb"`` (OS-scheduled Volcano), ``"sqlserver"``
        (NUMA-aware, partitioned + node-affined) or ``"morsel"``
        (HyPer-style pinned workers with dynamic morsel dispatch).
    mode:
        ``None`` for the uncontrolled baseline (all cores exposed), or one
        of ``"dense"``, ``"sparse"``, ``"adaptive"``.
    strategy:
        ``"cpu_load"``, ``"ht_imc"`` or ``"useful_load"``; thresholds come
        from the strategy defaults (10/70 and 0.1/0.4, per the paper).
    register:
        ``"tpch"`` registers q1..q22 plus the selectivity sweep;
        ``"none"`` leaves the registry empty (caller registers plans).
    record_placements:
        Placement records are high-volume; only trace experiments ask for
        them.
    obs:
        A :class:`~repro.obs.Recorder` for telemetry; defaults to the
        process-wide recorder (the null one unless installed).
    """
    tracer = TraceRecorder()
    if not record_placements:
        tracer.mute(PlacementRecord)
    os_ = OperatingSystem(machine or opteron_8387(), scheduler,
                          tracer=tracer, obs=obs)
    dataset = dataset_for(scale, sim_scale, seed)
    catalog = dataset.catalog()

    if engine == "monetdb":
        eng: DatabaseEngine = MonetDBLike(os_, catalog, dataset.byte_scale,
                                          engine_config, cost_model)
    elif engine == "sqlserver":
        eng = NumaAwareEngine(os_, catalog, dataset.byte_scale,
                              engine_config, cost_model)
    elif engine == "morsel":
        eng = MorselEngine(os_, catalog, dataset.byte_scale,
                           engine_config, cost_model)
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    eng.load()
    os_.counters.reset()

    if register == "tpch":
        eng.register_queries(build_queries(scale=scale))
        # the Fig 15 sweep plus the paper's ~45 %-selectivity
        # thetasubselect workload (Fig 13/14)
        for level in (*SELECTIVITY_LEVELS, 0.45):
            eng.register_query(selectivity_name(level),
                               selectivity_query(level))
    elif register != "none":
        raise ConfigError(f"unknown register set {register!r}")

    sut = SystemUnderTest(os=os_, engine=eng, controller=None,
                          dataset=dataset, mode_name=None)
    return attach_controller(sut, mode, strategy=strategy,
                             controller=controller, keepalive=keepalive)


def attach_controller(sut: SystemUnderTest, mode: str | None,
                      strategy: str | TransitionStrategy = "cpu_load",
                      controller: ControllerConfig | None = None,
                      keepalive: bool = False) -> SystemUnderTest:
    """Attach and start an elastic controller on a built system.

    The fork point of the sweep harnesses: a controllerless system is
    warmed once, captured, and each sweep cell attaches its own mode to
    a fresh fork.  ``mode=None`` is a no-op (the OS baseline).  Returns
    ``sut`` for chaining.
    """
    if mode is None:
        return sut
    if sut.controller is not None:
        raise ConfigError(
            f"system already runs a {sut.mode_name!r} controller")
    if isinstance(strategy, str):
        strategy = make_strategy(strategy)
    ctrl = ElasticController(
        sut.os, make_mode(mode, sut.os.topology), strategy,
        controller, keepalive=keepalive)
    ctrl.start()
    sut.controller = ctrl
    sut.mode_name = mode
    return sut


# ----------------------------------------------------------------------
# snapshot forking


def dataset_shared_atoms(dataset: TpchDataset) -> tuple:
    """The dataset and its column arrays, for snapshot externalisation.

    These are immutable by design (the engine mints fresh Tables over the
    same arrays), so every fork of a capture may alias them: snapshots
    stay small and restores never copy the bulk data.
    """
    atoms: list[object] = [dataset]
    for table in dataset.columns.values():
        atoms.extend(table.values())
    return tuple(atoms)


def capture_system(sut: SystemUnderTest) -> SimState:
    """Snapshot a full system under test.

    The dataset is externalised (:func:`dataset_shared_atoms`), and so
    are the telemetry recorder and every sink it has handed out — the
    registry's instruments, the span tracer, the decision log — so each
    fork records into the live recorder, not into a pickled copy of it.
    """
    obs = sut.os.obs
    sinks = (obs, obs.metrics, *obs.metrics.all(), obs.spans,
             obs.decisions)
    return sut.os.sim.snapshot(
        root=sut, shared=dataset_shared_atoms(sut.dataset) + sinks)


def fork_system(base: SimState) -> SystemUnderTest:
    """Materialise one independent system from a captured warm prefix.

    The thread-id counter is part of the captured operating system, so
    the fork numbers its threads on from the base's, as a cold run would.
    """
    return base.restore()


def warm_system(engine: str = "monetdb", *,
                clients: int = 0,
                stream: Callable[[int], Iterable[str]] | None = None,
                scale: float = 0.01, sim_scale: float = 1.0,
                seed: int = 42, record_placements: bool = False,
                **build_kwargs) -> SimState:
    """Build + optionally warm one controllerless system; capture it.

    The shared prefix of a sweep: data load, query registration and —
    when ``clients``/``stream`` are given — a warm-up workload under
    plain OS scheduling (first-touch page placement, thread spawning).
    Controllers are mode-specific, so they are attached per fork via
    :func:`attach_controller`, never baked into the base.
    """
    sut = build_system(engine=engine, mode=None, scale=scale,
                       sim_scale=sim_scale, seed=seed,
                       record_placements=record_placements,
                       **build_kwargs)
    if clients and stream is not None:
        sut.run_clients(clients, stream)
    return capture_system(sut)


def run_phased_workload(sut: SystemUnderTest, phases: Iterable[str],
                        n_clients: int) -> tuple[float, int]:
    """Run phases back-to-back; returns (makespan, queries completed)."""
    start = sut.os.now
    completed = 0
    for result in sut.run_phases(phases, n_clients):
        completed += result.queries_completed
    return sut.os.now - start, completed
