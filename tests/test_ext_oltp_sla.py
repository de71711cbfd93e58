"""Extensions: index lookups, unmanaged threads, OLTP workload, SLA."""

import pytest

from repro.config import EngineConfig, MachineConfig
from repro.core.monitor import MonitorSample
from repro.core.sla import SlaGovernor
from repro.core.strategies import CpuLoadStrategy
from repro.db.engine import DatabaseEngine
from repro.db.operators import IndexLookup, relation_rows
from repro.db.plan import profile_query
from repro.errors import ConfigError, WorkloadError
from repro.experiments.common import build_system
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.workloads.oltp import (oltp_stream, point_lookup,
                                  point_query_names,
                                  register_point_queries)

SCALE = 0.004
SIM = 0.125


class TestIndexLookup:
    def test_real_execution_matches_filter(self, tiny_dataset):
        catalog = tiny_dataset.catalog()
        node = IndexLookup("orders", "o_orderkey", 5,
                           keep=["o_orderkey", "o_custkey"])
        rel = node.evaluate(catalog)
        assert relation_rows(rel) == 1
        assert rel["o_orderkey"][0] == 5

    def test_missing_key_gives_empty(self, tiny_dataset):
        catalog = tiny_dataset.catalog()
        node = IndexLookup("orders", "o_orderkey", 10**9)
        assert relation_rows(node.evaluate(catalog)) == 0
        assert node.match_fraction(catalog) == 0.0

    def test_profile_touches_few_pages(self, tiny_dataset):
        sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
        node = point_lookup(3)
        profile = profile_query(node, sut.engine.catalog, "pl",
                                sut.dataset.byte_scale)
        lookup_stages = [s for s in profile.stages
                         if s.label == "index.lookup"]
        assert len(lookup_stages) == 2
        for stage in lookup_stages:
            assert not stage.parallel
            assert stage.point_reads
            assert not stage.base_reads

    def test_point_query_is_orders_of_magnitude_cheaper(self):
        from repro.workloads.tpch.queries import q6

        sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
        scan_profile = profile_query(q6(), sut.engine.catalog, "q6",
                                     sut.dataset.byte_scale)
        point_profile = profile_query(
            point_lookup(3), sut.engine.catalog, "pl",
            sut.dataset.byte_scale)
        assert point_profile.total_cycles < scan_profile.total_cycles / 50


class TestOltpWorkload:
    def test_point_query_names_deterministic(self):
        a = point_query_names(5, 100, seed=1)
        b = point_query_names(5, 100, seed=1)
        assert a == b
        assert all(1 <= key <= 100 for _, key in a)

    def test_register_and_stream(self):
        sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
        engine = DatabaseEngine(
            sut.os, sut.engine.catalog, sut.dataset.byte_scale,
            EngineConfig(managed_threads=False, max_workers=1),
            name="oltp")
        names = register_point_queries(engine, n_distinct=4)
        assert len(names) == 4
        stream = oltp_stream(names, 6)
        assert len(stream(0)) == 6
        assert set(stream(0)) <= set(names)

    def test_stream_validation(self):
        with pytest.raises(WorkloadError):
            oltp_stream([], 5)
        with pytest.raises(WorkloadError):
            oltp_stream(["a"], 0)
        with pytest.raises(WorkloadError):
            point_lookup(0)

    def test_max_workers_bounds_point_queries(self):
        sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
        engine = DatabaseEngine(
            sut.os, sut.engine.catalog, sut.dataset.byte_scale,
            EngineConfig(managed_threads=False, max_workers=1),
            name="oltp")
        assert engine.worker_count() == 1


class TestUnmanagedThreads:
    def test_unmanaged_threads_ignore_the_mask(self):
        sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
        sut.os.cpuset.set_mask([0])
        pages = list(sut.os.machine.memory.allocate(8))
        for page in pages:
            sut.os.machine.memory.place(page, 1)
        threads = [sut.os.spawn_thread(
            ListWorkSource([WorkItem("app", reads=pages, cycles=1e7)]),
            managed=False) for _ in range(4)]
        cores = {t.core for t in threads}
        assert any(core != 0 for core in cores)
        sut.os.run_until_idle()
        busy = sut.os.counters.by_index("busy_time")
        assert any(core != 0 for core in busy)

    def test_managed_threads_respect_the_mask(self):
        sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
        sut.os.cpuset.set_mask([0])
        pages = list(sut.os.machine.memory.allocate(8))
        for page in pages:
            sut.os.machine.memory.place(page, 0)
        for _ in range(3):
            sut.os.spawn_thread(ListWorkSource(
                [WorkItem("db", reads=pages, cycles=1e7)]))
        sut.os.run_until_idle()
        busy = sut.os.counters.by_index("busy_time")
        assert set(busy) == {0}


def _sample(busy=50.0, ht=0.0, window=1.0):
    cores = tuple(range(16))
    return MonitorSample(time=1.0, window=window,
                         per_core_busy={c: busy for c in cores},
                         per_core_useful={c: busy * 0.8 for c in cores},
                         allocated_cores=cores, ht_bytes=ht,
                         imc_bytes=ht * 2 + 1, runnable_threads=32)


class TestSlaGovernor:
    def test_requires_a_budget(self):
        with pytest.raises(ConfigError):
            SlaGovernor(CpuLoadStrategy())
        with pytest.raises(ConfigError):
            SlaGovernor(CpuLoadStrategy(), traffic_budget=-1)
        with pytest.raises(ConfigError):
            SlaGovernor(CpuLoadStrategy(), power_budget=100)  # no machine

    def test_defers_to_base_within_budget(self):
        governor = SlaGovernor(CpuLoadStrategy(), traffic_budget=1e9)
        sample = _sample(busy=50.0, ht=1e8)  # 0.1 GB/s << budget
        assert governor.metric(sample) == 50.0
        assert governor.violations == 0

    def test_violation_forces_idle(self):
        governor = SlaGovernor(CpuLoadStrategy(), traffic_budget=1e9)
        sample = _sample(busy=99.0, ht=2e9)  # 2 GB/s over 1 GB/s budget
        assert governor.metric(sample) == governor.th_min
        assert governor.violations == 1

    def test_headroom_clamps_growth(self):
        governor = SlaGovernor(CpuLoadStrategy(), traffic_budget=1e9,
                               headroom=0.8)
        sample = _sample(busy=99.0, ht=0.9e9)  # 90 % of budget, overload
        metric = governor.metric(sample)
        assert governor.th_min < metric < governor.th_max
        assert governor.clamps == 1

    def test_power_budget_uses_energy_model(self):
        machine = MachineConfig()
        governor = SlaGovernor(CpuLoadStrategy(), machine=machine,
                               power_budget=10.0)  # absurdly low cap
        sample = _sample(busy=99.0, ht=0.0)
        assert governor.metric(sample) == governor.th_min
        estimate = governor.power_estimate(_sample(busy=0.0))
        idle_floor = (machine.n_sockets * machine.acp_watts
                      * machine.idle_power_fraction)
        assert estimate == pytest.approx(idle_floor, rel=0.01)
