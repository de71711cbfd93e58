"""Load sampling: the monitor's busy/useful percentages over windows."""

import pytest

from repro.core.monitor import Monitor
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem


@pytest.fixture
def setup():
    os_ = OperatingSystem(small_numa())
    return os_, os_.machine, Monitor(os_)


def advance(os_, to):
    """Move the simulated clock to ``to``."""
    os_.sim.schedule(to - os_.now, lambda: None)
    os_.run_until_idle()


def test_unprimed_sample_is_zero(setup):
    os_, _, monitor = setup
    advance(os_, 1.0)
    sample = monitor.sample()
    assert sample.window == 0.0
    assert sample.load.average_allocated == 0.0


def test_busy_percentage_over_window(setup):
    os_, machine, monitor = setup
    monitor.prime()
    machine.account_busy(0, 0.5)
    advance(os_, 1.0)
    load = monitor.sample().load
    assert load.per_core_busy[0] == pytest.approx(50.0)
    assert load.per_core_busy[1] == 0.0


def test_average_allocated_respects_mask(setup):
    os_, machine, monitor = setup
    os_.cpuset.set_mask([0, 1])
    monitor.prime()
    machine.account_busy(0, 1.0)
    machine.account_busy(2, 1.0)  # not in the mask: ignored
    advance(os_, 1.0)
    load = monitor.sample().load
    assert load.allocated_cores == (0, 1)
    assert load.average_allocated == pytest.approx(50.0)


def test_useful_flavour_tracks_useful_counter(setup):
    os_, machine, monitor = setup
    monitor.prime()
    machine.account_busy(0, 1.0)
    machine.counters.add("useful_time", 0, 0.25)
    advance(os_, 1.0)
    load = monitor.sample().load
    assert load.per_core_useful[0] == pytest.approx(25.0)
    assert load.average_useful_allocated < load.average_allocated


def test_percentages_clamped_to_100(setup):
    os_, machine, monitor = setup
    monitor.prime()
    machine.account_busy(0, 5.0)  # more busy than wall (batched account)
    advance(os_, 1.0)
    assert monitor.sample().load.per_core_busy[0] == 100.0


def test_windows_are_consecutive(setup):
    os_, machine, monitor = setup
    monitor.prime()
    machine.account_busy(0, 1.0)
    advance(os_, 1.0)
    first = monitor.sample().load
    advance(os_, 2.0)  # no new busy time
    second = monitor.sample().load
    assert first.per_core_busy[0] == pytest.approx(100.0)
    assert second.per_core_busy[0] == 0.0


def test_average_node_over_core_group(setup):
    os_, machine, monitor = setup
    monitor.prime()
    machine.account_busy(0, 1.0)
    advance(os_, 1.0)
    load = monitor.sample().load
    node0_cores = list(machine.topology.cores_of_node(0))
    assert load.average_node(node0_cores) == pytest.approx(50.0)
    assert load.average_node([]) == 0.0


def test_a_tenant_monitor_averages_over_the_tenant_mask():
    os_ = OperatingSystem(small_numa())
    os_.create_tenant("t")
    os_.inventory.seed("t", [2, 3])
    monitor = Monitor(os_, "t")
    monitor.prime()
    os_.machine.account_busy(0, 1.0)  # the default tenant's core
    os_.machine.account_busy(2, 1.0)
    advance(os_, 1.0)
    sample = monitor.sample()
    assert sample.load.allocated_cores == (2, 3)
    assert sample.cpu_load == pytest.approx(50.0)
    assert sample.n_allocated == 2
