"""End-to-end integration: mechanism + engines on the tiny TPC-H DB.

These runs use a tiny dataset (scale 0.004, simulated at 1/8th of the
paper's database) to stay fast while still exercising every layer:
generated data -> real plan execution -> profiled stages -> simulated
machine -> controller feedback loop.
"""

import pytest

from repro.db.clients import repeat_stream
from repro.experiments.common import build_system
from repro.sim.tracing import CoreAllocation, QueryRecord

SCALE = 0.004
SIM = 0.125


def build(engine="monetdb", mode=None, **kwargs):
    return build_system(engine=engine, mode=mode, scale=SCALE,
                        sim_scale=SIM, **kwargs)


class TestUncontrolledBaselines:
    @pytest.mark.parametrize("engine", ["monetdb", "sqlserver"])
    def test_q6_completes_on_both_engines(self, engine):
        sut = build(engine=engine)
        result = sut.run_clients(2, repeat_stream("q6", 2))
        assert result.queries_completed == 4
        assert result.makespan > 0

    def test_monetdb_data_lands_on_loader_node(self):
        sut = build(engine="monetdb")
        histogram = sut.os.machine.memory.placement_histogram()
        assert histogram[0] > 0
        assert sum(histogram[1:]) == 0

    def test_sqlserver_data_spread(self):
        sut = build(engine="sqlserver")
        histogram = sut.os.machine.memory.placement_histogram()
        assert all(v > 0 for v in histogram)

    def test_os_scheduler_generates_remote_traffic(self):
        sut = build(engine="monetdb")
        sut.mark()
        sut.run_clients(4, repeat_stream("q6", 2))
        assert sut.delta("ht_tx_bytes") > 0
        assert sut.delta("minor_faults") > 0


class TestControlledRuns:
    @pytest.mark.parametrize("mode", ["dense", "sparse", "adaptive"])
    def test_modes_complete_workload(self, mode):
        sut = build(mode=mode)
        result = sut.run_clients(4, repeat_stream("q6", 2))
        assert result.queries_completed == 8
        assert sut.controller is not None
        assert sut.controller.ticks > 0

    def test_controller_allocates_under_load(self):
        sut = build(mode="adaptive")
        sut.run_clients(4, repeat_stream("q1", 2))
        report = sut.controller.lonc_report()
        assert report.max_cores > report.min_cores
        allocations = sut.os.tracer.of(CoreAllocation)
        assert any(r.allocated for r in allocations)

    def test_adaptive_reduces_traffic_ratio_vs_os(self):
        """The paper's headline direction: smaller HT/IMC under control."""
        ratios = {}
        for mode in (None, "adaptive"):
            sut = build(mode=mode)
            sut.mark()
            sut.run_clients(8, repeat_stream("sel_45pct", 3))
            ratios[mode] = sut.ht_imc_ratio()
        assert ratios["adaptive"] < ratios[None]

    def test_adaptive_reduces_migrations_vs_os(self):
        migrations = {}
        for mode in (None, "adaptive"):
            sut = build(mode=mode)
            sut.mark()
            sut.run_clients(1, repeat_stream("q6", 3))
            migrations[mode] = sut.delta("migrations")
        assert migrations["adaptive"] < migrations[None]

    def test_mask_and_model_consistent_after_run(self):
        sut = build(mode="dense")
        sut.run_clients(4, repeat_stream("q6", 2))
        assert sut.controller.model.nalloc == len(sut.os.cpuset)

    def test_ht_imc_strategy_runs(self):
        sut = build(mode="adaptive", strategy="ht_imc")
        result = sut.run_clients(2, repeat_stream("q6", 2))
        assert result.queries_completed == 4

    def test_useful_load_strategy_runs(self):
        sut = build(mode="dense", strategy="useful_load")
        result = sut.run_clients(2, repeat_stream("q6", 2))
        assert result.queries_completed == 4


class TestWholeBenchmarkSlice:
    def test_mixed_queries_on_controlled_system(self):
        from repro.workloads.phases import mixed_phases_stream
        sut = build(mode="adaptive")
        stream = mixed_phases_stream(2, seed=1)
        result = sut.run_clients(4, stream)
        assert result.queries_completed == 8
        records = sut.os.tracer.of(QueryRecord)
        assert len(records) == 8

    def test_all_queries_run_under_the_mechanism(self):
        sut = build(mode="adaptive")
        for name in ("q1", "q9", "q13", "q18", "q21", "q22"):
            result = sut.run_clients(1, repeat_stream(name, 1))
            assert result.queries_completed == 1, name

    def test_per_query_counters_populated(self):
        sut = build(mode=None)
        sut.mark()
        sut.run_clients(2, repeat_stream("q6", 2))
        assert sut.delta("query_imc_bytes", "q6") > 0
        assert sut.query_ht_imc_ratio("q6") >= 0

    def test_intermediates_do_not_leak(self):
        sut = build(mode=None)
        memory = sut.os.machine.memory
        base = sum(memory.placement_histogram())
        sut.run_clients(4, repeat_stream("q9", 2))
        assert sum(memory.placement_histogram()) == base
