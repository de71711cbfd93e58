"""Transition strategies, the monitor and the LONC report."""

import pytest

from repro.core.lonc import lonc_report
from repro.core.monitor import Monitor, MonitorSample
from repro.core.strategies import (CpuLoadStrategy, HtImcStrategy,
                                   UsefulLoadStrategy, make_strategy)
from repro.errors import ConfigError
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.sim.tracing import TransitionRecord


def make_sample(busy=50.0, useful=40.0, ht=0.0, imc=0.0, runnable=0,
                allocated=4):
    cores = tuple(range(allocated))
    return MonitorSample(time=1.0, window=0.02,
                         per_core_busy={c: busy for c in cores},
                         per_core_useful={c: useful for c in cores},
                         allocated_cores=cores, ht_bytes=ht,
                         imc_bytes=imc, runnable_threads=runnable)


class TestCpuLoadStrategy:
    def test_defaults_are_paper_thresholds(self):
        strategy = CpuLoadStrategy()
        assert (strategy.th_min, strategy.th_max) == (10.0, 70.0)

    def test_metric_is_busy_average(self):
        assert CpuLoadStrategy().metric(make_sample(busy=83.0)) == 83.0

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            CpuLoadStrategy(th_min=70, th_max=10)
        with pytest.raises(ConfigError):
            CpuLoadStrategy(th_min=-1, th_max=50)


class TestUsefulLoadStrategy:
    def test_metric_is_useful_average(self):
        assert UsefulLoadStrategy().metric(
            make_sample(busy=100.0, useful=42.0)) == 42.0


class TestHtImcStrategy:
    def test_defaults(self):
        strategy = HtImcStrategy()
        assert (strategy.th_min, strategy.th_max) == (0.1, 0.4)

    def test_plain_ratio(self):
        sample = make_sample(ht=30.0, imc=100.0)
        assert HtImcStrategy().metric(sample) == pytest.approx(0.3)

    def test_zero_imc_gives_zero(self):
        assert HtImcStrategy().metric(make_sample()) == 0.0

    def test_local_saturation_with_queue_pressure_is_overload(self):
        sample = make_sample(busy=30.0, ht=0.0, imc=100.0, runnable=20,
                             allocated=4)
        strategy = HtImcStrategy()
        assert strategy.metric(sample) == strategy.th_max

    def test_local_saturation_with_high_busy_is_overload(self):
        sample = make_sample(busy=95.0, ht=0.0, imc=100.0, runnable=1,
                             allocated=1)
        strategy = HtImcStrategy()
        assert strategy.metric(sample) == strategy.th_max

    def test_quiet_local_system_stays_idle(self):
        sample = make_sample(busy=5.0, ht=0.0, imc=100.0, runnable=1,
                             allocated=4)
        assert HtImcStrategy().metric(sample) == 0.0


def test_make_strategy_factory():
    assert isinstance(make_strategy("cpu_load"), CpuLoadStrategy)
    assert isinstance(make_strategy("ht_imc"), HtImcStrategy)
    assert isinstance(make_strategy("useful_load"), UsefulLoadStrategy)
    with pytest.raises(ConfigError):
        make_strategy("entropy")


class TestMonitor:
    def test_windows_and_deltas(self):
        os_ = OperatingSystem(small_numa())
        monitor = Monitor(os_)
        monitor.prime()
        pages = list(os_.machine.memory.allocate(8))
        os_.spawn_thread(ListWorkSource(
            [WorkItem("scan", reads=pages, cycles=1e6)]))
        os_.run_until_idle()
        sample = monitor.sample()
        assert sample.imc_bytes > 0
        assert sample.window == pytest.approx(os_.now)
        assert len(sample.allocated_cores) == os_.topology.n_cores
        # second sample over an empty window
        second = monitor.sample()
        assert second.imc_bytes == 0.0

    def test_ratio_property(self):
        sample = make_sample(ht=25.0, imc=50.0)
        assert sample.ht_imc_ratio == pytest.approx(0.5)
        assert make_sample().ht_imc_ratio == 0.0


class TestLonc:
    def test_report_from_records(self):
        # each pass counts the cores it started from: 4 (initial), then
        # the previous pass's cores_after; the last cores_after is unused
        records = [TransitionRecord(time=0.02 * i, label=f"x-{state}-y",
                                    state=state, value=0.0,
                                    cores_after=after, tenant="db")
                   for i, (state, after) in enumerate(
                       [("Idle", 4), ("Stable", 5), ("Stable", 5),
                        ("Overload", 9)])]
        report = lonc_report(records, initial_cores=4)
        assert report.ticks == 4
        assert report.stable_ticks == 2
        assert report.idle_ticks == 1
        assert report.overload_ticks == 1
        assert report.stable_fraction == pytest.approx(0.5)
        assert (report.min_cores, report.max_cores) == (4, 5)
        assert report.mean_cores == pytest.approx(4.5)

    def test_empty_report(self):
        report = lonc_report([], initial_cores=4)
        assert report.ticks == 0
        assert (report.min_cores, report.max_cores) == (0, 0)
        assert report.mean_cores == 0
        assert report.stable_fraction == 0.0
