"""The predicate-aware worker sizer."""

import pytest

from repro.core.feedforward import PredicateAwareSizer
from repro.db.plan import QueryProfile
from repro.errors import ConfigError


def profile_with(input_bytes: float, cycles: float) -> QueryProfile:
    from repro.db.plan import StageProfile

    return QueryProfile(name="q", stages=[StageProfile("s",
                                                       cycles=cycles)],
                        result={}, result_rows=0,
                        input_sim_bytes=input_bytes)


def test_tiny_query_gets_one_worker():
    sizer = PredicateAwareSizer(bytes_per_worker=1e6,
                                cycles_per_worker=1e6)
    assert sizer.workers_for(profile_with(100.0, 100.0), 16) == 1


def test_footprint_drives_demand():
    sizer = PredicateAwareSizer(bytes_per_worker=1e6,
                                cycles_per_worker=1e12)
    assert sizer.workers_for(profile_with(3.5e6, 0.0), 16) == 4


def test_compute_drives_demand():
    sizer = PredicateAwareSizer(bytes_per_worker=1e12,
                                cycles_per_worker=1e7)
    assert sizer.workers_for(profile_with(0.0, 2.5e7), 16) == 3


def test_larger_estimate_wins():
    sizer = PredicateAwareSizer(bytes_per_worker=1e6,
                                cycles_per_worker=1e6)
    assert sizer.workers_for(profile_with(2e6, 9e6), 16) == 9


def test_clamped_to_visible():
    sizer = PredicateAwareSizer(bytes_per_worker=1.0,
                                cycles_per_worker=1.0)
    assert sizer.workers_for(profile_with(1e9, 1e9), 6) == 6


def test_validation():
    with pytest.raises(ConfigError):
        PredicateAwareSizer(bytes_per_worker=0)
    with pytest.raises(ConfigError):
        PredicateAwareSizer(cycles_per_worker=-1)
    sizer = PredicateAwareSizer()
    with pytest.raises(ConfigError):
        sizer.workers_for(profile_with(1, 1), 0)


def test_engine_integration(tiny_dataset):
    """A predicate-aware engine spawns fewer workers for tiny queries."""
    from repro.config import EngineConfig
    from repro.db.engine import MonetDBLike
    from repro.opsys.system import OperatingSystem
    from repro.workloads.tpch import build_queries

    os_ = OperatingSystem()
    eng = MonetDBLike(os_, tiny_dataset.catalog(),
                      tiny_dataset.byte_scale,
                      EngineConfig(predicate_aware=True, loader_node=0))
    eng.load()
    os_.counters.reset()
    eng.register_queries(build_queries(scale=tiny_dataset.scale))
    # q2 touches small dimension tables only -> few workers
    small = eng.submit("q2")
    # q1 scans all of lineitem -> full fan-out
    big = eng.submit("q1")
    assert len(small.workers) < len(big.workers)
    os_.run_until_idle()
    assert small.finished and big.finished


@pytest.mark.parametrize("engine_name", ["monetdb", "morsel"])
def test_every_engine_sizes_its_workers(tiny_dataset, engine_name):
    """``predicate_aware`` shrinks a small query's pool on every engine,
    the morsel engine included."""
    from repro.config import EngineConfig
    from repro.db.engine import MonetDBLike
    from repro.db.morsel import MorselEngine
    from repro.opsys.system import OperatingSystem
    from repro.workloads.tpch import build_queries

    engine_class = {"monetdb": MonetDBLike, "morsel": MorselEngine}
    os_ = OperatingSystem()
    eng = engine_class[engine_name](
        os_, tiny_dataset.catalog(), tiny_dataset.byte_scale,
        EngineConfig(predicate_aware=True, loader_node=None))
    eng.load()
    eng.register_queries(build_queries(scale=tiny_dataset.scale))
    visible = eng.worker_count()
    wanted = PredicateAwareSizer().workers_for(eng.profile("q2"), visible)
    execution = eng.submit("q2")
    assert wanted < visible
    assert len(execution.workers) == wanted
    os_.run_until_idle()
    assert execution.finished
