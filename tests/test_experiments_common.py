"""The shared experiment harness plumbing."""

import pytest

from repro.analysis.timeline import render_core_map, render_node_map
from repro.db.clients import repeat_stream
from repro.experiments.common import build_system, run_phased_workload
from repro.experiments.fig05_migration_os import collect_timelines

SCALE = 0.004
SIM = 0.125


def test_mark_and_delta():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    sut.mark()
    assert sut.delta("busy_time") == 0.0
    sut.run_clients(2, repeat_stream("q6", 1))
    assert sut.delta("busy_time") > 0
    by_core = [sut.delta("busy_time", core)
               for core in sut.os.topology.all_cores()]
    assert sum(by_core) == pytest.approx(sut.delta("busy_time"))


def test_delta_without_mark_is_total():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    sut.run_clients(1, repeat_stream("q6", 1))
    assert sut.delta("busy_time") == \
        sut.os.counters.total("busy_time")


def test_ht_imc_ratio_bounds():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    sut.mark()
    assert sut.ht_imc_ratio() == 0.0   # nothing ran yet
    sut.run_clients(2, repeat_stream("q6", 1))
    assert 0.0 <= sut.ht_imc_ratio() <= 1.0


def test_run_phases_protocol():
    sut = build_system(mode="dense", scale=SCALE, sim_scale=SIM)
    results = sut.run_phases(["q6", "q13"], n_clients=2)
    assert len(results) == 2
    assert all(r.queries_completed == 2 for r in results)


def test_run_phased_workload_helper():
    sut = build_system(scale=SCALE, sim_scale=SIM)
    makespan, completed = run_phased_workload(sut, ["q6", "q14"], 2)
    assert completed == 4
    assert makespan > 0


def test_labels_cover_every_engine():
    for engine in ("monetdb", "sqlserver", "morsel"):
        sut = build_system(engine=engine, scale=SCALE, sim_scale=SIM,
                           register="none")
        assert sut.label == f"{engine}/OS"


def test_register_none_leaves_registry_empty():
    sut = build_system(scale=SCALE, sim_scale=SIM, register="none")
    assert not sut.engine._plans


def test_bad_register_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        build_system(scale=SCALE, sim_scale=SIM, register="everything")


def test_timeline_rendering_of_a_real_trace():
    sut = build_system(scale=SCALE, sim_scale=SIM,
                       record_placements=True)
    sut.run_clients(1, repeat_stream("q6", 1))
    timelines = collect_timelines(sut)
    assert timelines
    node_map = render_node_map(timelines, width=40, title="Fig5")
    core_map = render_core_map(timelines, width=40)
    assert node_map.splitlines()[0] == "Fig5"
    assert len(node_map.splitlines()) == len(timelines) + 2
    assert len(core_map.splitlines()) == len(timelines) + 1
