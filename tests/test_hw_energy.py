"""Energy model: ACP-based CPU energy and HT energy per bit."""

import pytest

from repro.config import MachineConfig
from repro.hardware.counters import CounterBank
from repro.hardware.energy import EnergyModel
from repro.hardware.topology import Topology


@pytest.fixture
def setup():
    config = MachineConfig(n_sockets=2, cores_per_socket=2,
                           acp_watts=100.0, idle_power_fraction=0.5,
                           ht_joules_per_bit=1e-12)
    return config, Topology(config), EnergyModel(config)


def test_idle_machine_draws_idle_floor(setup):
    config, topo, model = setup
    energy = model.cpu_energy({}, elapsed=10.0, topology=topo)
    # 2 sockets x 50 W idle x 10 s
    assert energy == pytest.approx(1000.0)


def test_fully_busy_machine_draws_acp(setup):
    config, topo, model = setup
    busy = {core: 10.0 for core in topo.all_cores()}
    energy = model.cpu_energy(busy, elapsed=10.0, topology=topo)
    assert energy == pytest.approx(2 * 100.0 * 10.0)


def test_half_busy_is_between(setup):
    config, topo, model = setup
    busy = {0: 10.0, 1: 10.0}  # node 0 fully busy, node 1 idle
    energy = model.cpu_energy(busy, elapsed=10.0, topology=topo)
    assert energy == pytest.approx(100.0 * 10 + 50.0 * 10)


def test_utilisation_clamped_at_one(setup):
    config, topo, model = setup
    busy = {core: 100.0 for core in topo.all_cores()}  # > elapsed
    energy = model.cpu_energy(busy, elapsed=10.0, topology=topo)
    assert energy == pytest.approx(2 * 100.0 * 10.0)


def test_zero_elapsed_zero_energy(setup):
    _, topo, model = setup
    assert model.cpu_energy({}, elapsed=0.0, topology=topo) == 0.0


def test_ht_energy_per_bit(setup):
    _, _, model = setup
    # 1000 bytes = 8000 bits at 1e-12 J/bit
    assert model.ht_energy(1000) == pytest.approx(8e-9)
    assert model.ht_energy(0) == 0.0
    assert model.ht_energy(-5) == 0.0


def test_report_between_snapshots(setup):
    config, topo, model = setup
    bank = CounterBank()
    start = bank.snapshot(0.0)
    bank.add("busy_time", 0, 5.0)
    bank.add("ht_tx_bytes", 0, 1_000_000)
    end = bank.snapshot(10.0)
    report = model.report(start, end, topo)
    assert report.cpu_joules > 0
    assert report.ht_joules == pytest.approx(8_000_000 * 1e-12)
