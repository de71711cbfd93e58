"""End-to-end controller behaviour under every strategy, plus scheduler
cost-charging details."""

import pytest

from repro.config import SchedulerConfig
from repro.core import ElasticController, make_mode
from repro.core.sla import SlaGovernor
from repro.core.strategies import CpuLoadStrategy
from repro.db.clients import repeat_stream
from repro.experiments.common import build_system
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.tracing import MigrationRecord, TransitionRecord

SCALE = 0.004
SIM = 0.125


class TestStrategiesEndToEnd:
    def test_ht_imc_controller_grows_under_demand(self):
        sut = build_system(mode="adaptive", strategy="ht_imc",
                           scale=SCALE, sim_scale=SIM)
        sut.run_clients(4, repeat_stream("sel_45pct", 2))
        report = sut.controller.lonc_report()
        assert report.max_cores > 1

    def test_ht_imc_metric_values_are_ratios(self):
        sut = build_system(mode="adaptive", strategy="ht_imc",
                           scale=SCALE, sim_scale=SIM)
        sut.run_clients(4, repeat_stream("q6", 2))
        values = [r.value for r in sut.os.tracer.of(TransitionRecord)]
        assert values
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_useful_load_settles_below_busy_load(self):
        cores = {}
        for strategy in ("cpu_load", "useful_load"):
            sut = build_system(mode="adaptive", strategy=strategy,
                               scale=SCALE, sim_scale=SIM)
            sut.run_clients(8, repeat_stream("sel_45pct", 3))
            cores[strategy] = sut.controller.lonc_report().mean_cores
        assert cores["useful_load"] <= cores["cpu_load"] + 0.5

    def test_sla_governed_controller_end_to_end(self):
        sut = build_system(mode=None, scale=SCALE, sim_scale=SIM)
        governor = SlaGovernor(CpuLoadStrategy(), traffic_budget=1e7)
        controller = ElasticController(
            sut.os, make_mode("adaptive", sut.os.topology), governor)
        controller.start()
        sut.controller = controller
        sut.run_clients(8, repeat_stream("sel_45pct", 2))
        # the tiny budget forces violations and keeps the mask small
        assert governor.violations > 0
        assert controller.lonc_report().mean_cores < 8


class TestSchedulerCostCharging:
    def test_context_switch_cost_charged_on_thread_change(self):
        config = SchedulerConfig(context_switch_cost=5e-4)
        os_ = OperatingSystem(small_numa(), config)
        os_.cpuset.set_mask([0])
        # two threads alternating on one core: every dispatch switches
        for _ in range(2):
            os_.spawn_thread(ListWorkSource(
                [WorkItem("w", cycles=3e7)]))
        os_.run_until_idle()
        busy = os_.counters.get("busy_time", 0)
        useful = os_.counters.get("useful_time", 0)
        # the switch costs show up as busy-but-not-useful time
        assert busy - useful > 1e-3

    def test_huge_carryover_stall_does_not_livelock(self):
        """Regression: switch costs above the quantum used to produce
        zero-progress chunks under strict alternation."""
        config = SchedulerConfig(context_switch_cost=0.01,
                                 quantum=0.004)
        os_ = OperatingSystem(small_numa(), config)
        os_.cpuset.set_mask([0])
        threads = [os_.spawn_thread(ListWorkSource(
            [WorkItem("w", cycles=2e7)])) for _ in range(2)]
        os_.run(until=30.0)
        from repro.opsys.thread import ThreadState
        assert all(t.state is ThreadState.DONE for t in threads)

    def test_migration_cost_charged_to_moved_thread(self):
        config = SchedulerConfig(migration_cost=0.002,
                                 balance_interval=0.002)
        os_ = OperatingSystem(small_numa(), config)
        pages = list(os_.machine.memory.allocate(8))
        for page in pages:
            os_.machine.memory.place(page, 0)
        threads = [os_.spawn_thread(ListWorkSource(
            [WorkItem("w", reads=list(pages), cycles=1e7)]))
            for _ in range(8)]
        os_.run_until_idle()
        tids = {t.tid for t in threads}
        migrated = [r for r in os_.tracer.of(MigrationRecord)
                    if r.thread_id in tids]
        assert migrated  # oversubscription forced moves
        # the fixed cost surfaces as busy-but-not-useful time
        busy = os_.counters.total("busy_time")
        useful = os_.counters.total("useful_time")
        assert busy > useful

    def test_minor_fault_cost_appears_in_elapsed(self):
        cheap = OperatingSystem(small_numa(),
                                SchedulerConfig(minor_fault_cost=0.0))
        costly = OperatingSystem(small_numa(),
                                 SchedulerConfig(minor_fault_cost=1e-3))
        for os_ in (cheap, costly):
            pages = list(os_.machine.memory.allocate(32))
            os_.spawn_thread(ListWorkSource(
                [WorkItem("w", reads=pages, cycles=1e6)]),
                pinned_core=0)
            os_.run_until_idle()
        assert costly.counters.get("busy_time", 0) \
            > cheap.counters.get("busy_time", 0) + 0.02


class TestModelSubnetSemantics:
    """The paper's Fig 10/11 walk-throughs as executable checks."""

    def test_fig10_idle_walkthrough(self):
        from repro.core.model import PerformanceModel

        model = PerformanceModel(10, 70, n_total=16, initial_cores=5)
        chain = model.run_cycle(8.0)   # u=8 with 5 cores provisioned
        assert chain.label == "t0-Idle-t4"
        assert model.nalloc == 4       # one of the 5 released

    def test_fig11_stable_walkthrough(self):
        from repro.core.model import PerformanceModel

        model = PerformanceModel(10, 70, n_total=16, initial_cores=3)
        chain = model.run_cycle(40.0)  # u=40 inside (10, 70)
        assert chain.label == "t2-Stable-t3"
        assert model.nalloc == 3

    def test_fired_log_alternates_entry_exit(self):
        from repro.core.model import PerformanceModel

        model = PerformanceModel(10, 70, n_total=16, initial_cores=2)
        chains = [model.run_cycle(u) for u in (99, 5, 40, 99, 99)]
        assert all(c.entry in ("t0", "t1", "t2") for c in chains)
        assert all(c.exit in ("t3", "t4", "t5", "t6", "t7") for c in chains)
