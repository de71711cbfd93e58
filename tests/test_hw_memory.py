"""Memory system: allocation, placement, histograms."""

import pytest

from repro.config import MachineConfig
from repro.errors import HardwareError
from repro.hardware.memory import UNPLACED, MemorySystem
from repro.hardware.topology import Topology


@pytest.fixture
def memory() -> MemorySystem:
    return MemorySystem(Topology(MachineConfig(n_sockets=2,
                                               cores_per_socket=2)))


def test_allocate_is_dense_and_monotonic(memory):
    a = memory.allocate(3)
    b = memory.allocate(2)
    assert list(a) == [0, 1, 2]
    assert list(b) == [3, 4]


def test_allocate_bytes_rounds_up(memory):
    pages = memory.allocate_bytes(memory.page_bytes + 1)
    assert len(pages) == 2


def test_allocate_bytes_zero_is_empty(memory):
    assert len(memory.allocate_bytes(0)) == 0


def test_placement_lifecycle(memory):
    (page,) = memory.allocate(1)
    assert memory.home(page) == UNPLACED
    assert not memory.is_placed(page)
    memory.place(page, 1)
    assert memory.home(page) == 1
    assert memory.placement_histogram()[1] == 1


def test_double_placement_rejected(memory):
    (page,) = memory.allocate(1)
    memory.place(page, 0)
    with pytest.raises(HardwareError):
        memory.place(page, 1)


def test_place_unallocated_rejected(memory):
    with pytest.raises(HardwareError):
        memory.place(123, 0)


def test_place_bad_node_rejected(memory):
    (page,) = memory.allocate(1)
    with pytest.raises(HardwareError):
        memory.place(page, 5)


def test_free_returns_capacity(memory):
    pages = list(memory.allocate(4))
    for page in pages:
        memory.place(page, 0)
    assert memory.placement_histogram()[0] == 4
    memory.free(pages[:2])
    assert memory.placement_histogram()[0] == 2
    assert memory.home(pages[0]) == UNPLACED


def test_free_ignores_unplaced(memory):
    pages = memory.allocate(2)
    memory.free(pages)  # no error


def test_placement_histogram(memory):
    pages = list(memory.allocate(5))
    for page in pages[:3]:
        memory.place(page, 0)
    for page in pages[3:]:
        memory.place(page, 1)
    assert memory.placement_histogram() == [3, 2]


def test_bank_capacity_enforced():
    config = MachineConfig(n_sockets=2, cores_per_socket=2,
                           dram_bytes=4 * MachineConfig().page_bytes)
    memory = MemorySystem(Topology(config))
    pages = list(memory.allocate(5))
    for page in pages[:4]:
        memory.place(page, 0)
    with pytest.raises(HardwareError):
        memory.place(pages[4], 0)
    memory.place(pages[4], 1)  # other bank still has room
