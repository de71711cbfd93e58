"""Virtual memory: first touch, remote-mapping faults, residency feed."""

import pytest

from repro.config import MachineConfig
from repro.errors import HardwareError
from repro.hardware.machine import Machine
from repro.hardware.prebuilt import small_numa
from repro.opsys.thread import SimThread
from repro.opsys.vm import VirtualMemory
from repro.opsys.workitem import ListWorkSource
from repro.pages import PageSegments
from repro.units import kib


@pytest.fixture
def vm():
    return VirtualMemory(Machine(small_numa()))


def _thread():
    return SimThread(ListWorkSource(), tid=1)


def test_first_touch_places_and_faults(vm):
    pages = list(vm.machine.memory.allocate(3))
    faults = vm.touch_pages(pages, node=1)
    assert faults == 3
    assert all(vm.machine.memory.home(p) == 1 for p in pages)
    assert vm.machine.counters.get("minor_faults", 1) == 3


def _vm_state(vm):
    memory = vm.machine.memory
    return (bytes(vm._mapped), list(memory._home),
            list(memory._pages_per_node),
            dict(vm.machine.counters.by_index("minor_faults")))


@pytest.mark.parametrize("bad", [[-1], [99], [5, 6, 99, 7]])
def test_rejected_touch_pages_leaves_state_unchanged(vm, bad):
    memory = vm.machine.memory
    memory.allocate(10)
    vm.touch_pages(range(0, 4), node=0)
    thread = _thread()
    before = _vm_state(vm)
    # fresh and remote pages ahead of the never-allocated id
    with pytest.raises(HardwareError, match="was never allocated"):
        vm.touch_pages([8, 1, 2] + bad, node=1, thread=thread)
    assert _vm_state(vm) == before
    assert thread.pages_by_node == {}


def test_touch_pages_rejects_bad_node_before_mapping(vm):
    vm.machine.memory.allocate(4)
    before = _vm_state(vm)
    with pytest.raises(HardwareError, match="node 2 out of range"):
        vm.touch_pages(range(0, 4), node=2)
    assert _vm_state(vm) == before


def test_touch_pages_rejects_negative_node_before_mapping(vm):
    vm.machine.memory.allocate(4)
    before = _vm_state(vm)
    with pytest.raises(HardwareError, match="node -1 out of range"):
        vm.touch_pages(range(0, 4), node=-1)
    assert _vm_state(vm) == before


def test_more_nodes_than_the_mapping_bitmask_holds_are_rejected():
    machine = Machine(MachineConfig(n_sockets=9, cores_per_socket=1))
    with pytest.raises(HardwareError, match="9 nodes exceed"):
        VirtualMemory(machine)
    VirtualMemory(Machine(MachineConfig(n_sockets=8, cores_per_socket=1)))


def test_touch_pages_rejects_full_bank_before_mapping():
    vm = VirtualMemory(Machine(small_numa(dram_bytes=kib(64) * 4)))
    vm.machine.memory.allocate(6)
    vm.touch_pages(range(0, 3), node=0)
    before = _vm_state(vm)
    # pages 0-2 are placed already: only 3-5 would land, one too many
    with pytest.raises(HardwareError, match="bank of node 0 is full"):
        vm.touch_pages(range(0, 6), node=0)
    assert _vm_state(vm) == before
    # re-touching placed pages needs no bank space
    assert vm.touch_pages([2, 1, 0, 3], node=0) == 1


def test_repeat_touch_same_node_no_fault(vm):
    pages = list(vm.machine.memory.allocate(2))
    vm.touch_pages(pages, node=0)
    assert vm.touch_pages(pages, node=0) == 0


def test_mapping_bitmask_grows_past_its_initial_capacity(vm):
    """Pages far above the bitmask's first 1024 ids map and stay mapped."""
    vm.machine.memory.allocate(5000)
    pages = range(4000, 4100)
    assert vm.touch_pages(PageSegments([range(10, 20), pages]), 0) == 110
    assert vm.touch_pages(pages, 0) == 0
    assert vm._mapped[4050] == 0b01


def test_remote_mapping_faults_once_per_node(vm):
    pages = list(vm.machine.memory.allocate(2))
    vm.touch_pages(pages, node=0)
    assert vm.touch_pages(pages, node=1) == 2   # remote-access faults
    assert vm.touch_pages(pages, node=1) == 0   # already mapped there
    # home never moves
    assert all(vm.machine.memory.home(p) == 0 for p in pages)


def test_nodes_mapping_tracks_mappers(vm):
    (page,) = vm.machine.memory.allocate(1)
    vm.touch_pages([page], node=0)
    vm.touch_pages([page], node=1)
    # one bit per node that has mapped the page
    assert vm._mapped[page] == 0b11


def test_thread_residency_histogram_counts_batches(vm):
    pages = list(vm.machine.memory.allocate(4))
    thread = _thread()
    vm.touch_pages(pages, node=0, thread=thread)
    assert thread.pages_by_node[0] == 4
    # a second batch over the same pages counts again (access volume)
    vm.touch_pages(pages, node=0, thread=thread)
    assert thread.pages_by_node[0] == 8


def test_thread_histogram_attributes_to_home_node(vm):
    pages = list(vm.machine.memory.allocate(2))
    vm.touch_pages(pages, node=1)           # homes on node 1
    thread = _thread()
    vm.touch_pages(pages, node=0, thread=thread)  # accessed from node 0
    assert thread.pages_by_node == {1: 2}


def test_forget_releases_pages_and_mappings(vm):
    pages = list(vm.machine.memory.allocate(2))
    vm.touch_pages(pages, node=0)
    vm.forget(pages)
    assert vm.machine.memory.placement_histogram()[0] == 0
    assert vm._mapped[pages[0]] == 0
    # re-touch first-touches again
    assert vm.touch_pages(pages, node=1) == 2


def test_total_minor_faults(vm):
    pages = list(vm.machine.memory.allocate(3))
    vm.touch_pages(pages, node=0)
    vm.touch_pages(pages, node=1)
    assert vm.counters.total("minor_faults") == 6
