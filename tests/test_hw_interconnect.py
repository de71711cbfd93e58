"""Interconnect: FIFO channels, link traffic accounting."""

import pytest

from repro.config import MachineConfig
from repro.errors import HardwareError
from repro.hardware.counters import CounterBank
from repro.hardware.interconnect import FifoChannel, Interconnect
from repro.hardware.topology import Topology


@pytest.fixture
def fabric():
    topo = Topology(MachineConfig(n_sockets=4, cores_per_socket=4))
    return Interconnect(topo, CounterBank())


class TestFifoChannel:
    def test_uncontended_service_time(self):
        channel = FifoChannel(bandwidth=1000.0)
        done = channel.reserve(0.0, 500)
        assert done == pytest.approx(0.5)

    def test_back_to_back_requests_queue(self):
        channel = FifoChannel(bandwidth=1000.0)
        first = channel.reserve(0.0, 1000)
        second = channel.reserve(0.0, 1000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_gap_resets_start(self):
        channel = FifoChannel(bandwidth=1000.0)
        channel.reserve(0.0, 100)
        done = channel.reserve(5.0, 100)
        assert done == pytest.approx(5.1)

    def test_aggregate_throughput_is_hard_capped(self):
        channel = FifoChannel(bandwidth=1000.0)
        last = 0.0
        for _ in range(10):
            last = channel.reserve(0.0, 1000)
        # ten 1-second requests cannot finish before t=10
        assert last == pytest.approx(10.0)

    def test_backlog_measures_queued_work(self):
        channel = FifoChannel(bandwidth=1000.0)
        channel.reserve(0.0, 2000)
        # an empty request completes when the queued work drains
        assert channel.reserve(1.5, 0) == pytest.approx(2.0)
        assert channel.reserve(9.0, 0) == pytest.approx(9.0)

    def test_negative_bytes_rejected(self):
        channel = FifoChannel(bandwidth=1000.0)
        with pytest.raises(HardwareError):
            channel.reserve(0.0, -1)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(HardwareError):
            FifoChannel(bandwidth=0.0)


class TestInterconnect:
    def test_transfer_records_sender_counter(self, fabric):
        fabric.transfer(0.0, 2, 0, 4096)
        assert fabric.counters.get("ht_tx_bytes", 2) == 4096
        assert fabric.counters.get("ht_tx_bytes", 0) == 0

    def test_transfer_returns_completion_time(self, fabric):
        done = fabric.transfer(0.0, 0, 1, int(fabric.link_bandwidth))
        assert done == pytest.approx(1.0)

    def test_links_are_independent(self, fabric):
        size = int(fabric.link_bandwidth)
        done_a = fabric.transfer(0.0, 0, 1, size)
        done_b = fabric.transfer(0.0, 2, 3, size)
        assert done_a == pytest.approx(1.0)
        assert done_b == pytest.approx(1.0)

    def test_same_link_serialises(self, fabric):
        size = int(fabric.link_bandwidth)
        fabric.transfer(0.0, 0, 1, size)
        done = fabric.transfer(0.0, 0, 1, size)
        assert done == pytest.approx(2.0)

    def test_local_transfer_rejected(self, fabric):
        with pytest.raises(HardwareError):
            fabric.transfer(0.0, 1, 1, 64)

    def test_total_and_per_node_traffic(self, fabric):
        fabric.transfer(0.0, 0, 1, 100)
        fabric.transfer(0.0, 0, 2, 50)
        assert fabric.counters.total("ht_tx_bytes") == 150
        assert fabric.counters.by_index("ht_tx_bytes") == {0: 150}

    def test_unknown_link_rejected(self, fabric):
        with pytest.raises(HardwareError):
            fabric.link(1, 1)
