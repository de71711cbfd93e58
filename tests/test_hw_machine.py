"""Machine: the touch() cost model and counter wiring."""

import pytest

from repro.errors import HardwareError
from repro.hardware.machine import Machine
from repro.hardware.prebuilt import small_numa


@pytest.fixture
def machine():
    return Machine(small_numa())


def _place(machine, n_pages, node):
    pages = list(machine.memory.allocate(n_pages))
    for page in pages:
        machine.memory.place(page, node)
    return pages


def test_touch_unplaced_page_rejected(machine):
    pages = list(machine.memory.allocate(1))
    with pytest.raises(HardwareError):
        machine.touch(0.0, 0, pages)


def _machine_state(machine):
    return (
        [cache.resident_pages() for cache in machine.caches],
        [bank._free_at for bank in machine.banks],
        [link._free_at for link in machine.interconnect._links.values()],
        [(name, list(family.items()))
         for name, family in machine.counters._families.items()],
    )


@pytest.mark.parametrize("write", [False, True])
def test_rejected_touch_leaves_state_unchanged(machine, write):
    placed = _place(machine, 6, node=1)
    machine.touch(0.0, 2, placed[:3])  # socket 1 caches three pages
    fresh = list(machine.memory.allocate(2))
    before = _machine_state(machine)
    # placed pages (misses and hits) ahead of the unplaced one
    pages = placed[3:] + placed[:3] + fresh
    touch = machine.touch_write if write else machine.touch
    with pytest.raises(HardwareError) as excinfo:
        touch(1e-3, 1, pages)
    message = str(excinfo.value)
    assert f"page {fresh[0]}" in message
    assert "core 1" in message and "socket 0" in message
    assert _machine_state(machine) == before


def test_touch_never_allocated_page_rejected(machine):
    placed = _place(machine, 2, node=0)
    before = _machine_state(machine)
    with pytest.raises(HardwareError, match="page 2 was never allocated"):
        machine.touch(0.0, 0, range(0, 4))
    with pytest.raises(HardwareError, match="page -1 was never allocated"):
        machine.touch(0.0, 0, [placed[0], -1])
    assert _machine_state(machine) == before


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("pages, page", [
    ([13], 13), (range(0, 11), 8), ([-1], -1)])
def test_never_allocated_page_is_named_as_such(machine, write, pages, page):
    """The machine names a never-allocated page the way the VM does,
    not as one touched before placement."""
    _place(machine, 8, node=1)
    before = _machine_state(machine)
    touch = machine.touch_write if write else machine.touch
    with pytest.raises(HardwareError) as excinfo:
        touch(0.0, 2, pages)
    assert str(excinfo.value) == (
        f"page {page} was never allocated (core 2, socket 1)")
    assert _machine_state(machine) == before


def test_local_touch_counts_local_bytes(machine):
    pages = _place(machine, 4, node=0)
    result = machine.touch(0.0, 0, pages)  # core 0 is on node 0
    assert result.misses == 4
    assert result.remote_misses == 0
    assert result.bytes_local == 4 * machine.config.page_bytes
    assert result.bytes_remote == 0
    assert machine.counters.get("imc_bytes", 0) == result.bytes_local
    assert machine.counters.total("ht_tx_bytes") == 0


def test_remote_touch_moves_bytes_over_fabric(machine):
    pages = _place(machine, 4, node=1)
    remote_core = 0  # node 0
    result = machine.touch(0.0, remote_core, pages)
    assert result.remote_misses == 4
    assert result.bytes_remote == 4 * machine.config.page_bytes
    assert machine.counters.get("ht_tx_bytes", 1) == result.bytes_remote
    # IMC bytes are counted at the HOME node
    assert machine.counters.get("imc_bytes", 1) == result.bytes_remote


def test_remote_stall_exceeds_local(machine):
    local_pages = _place(machine, 8, node=0)
    remote_pages = _place(machine, 8, node=1)
    local = machine.touch(0.0, 0, local_pages)
    machine.flush_caches()
    remote = machine.touch(10.0, 0, remote_pages)
    assert remote.stall_time > local.stall_time


def test_second_touch_hits_cache(machine):
    pages = _place(machine, 2, node=0)
    machine.touch(0.0, 0, pages)
    again = machine.touch(0.0, 0, pages)
    assert again.hits == 2
    assert again.misses == 0
    assert again.stall_time == 0.0


def test_cache_is_per_socket(machine):
    pages = _place(machine, 2, node=0)
    machine.touch(0.0, 0, pages)          # warm node 0's L3
    other_socket_core = machine.topology.cores_of_node(1)[0]
    result = machine.touch(0.0, other_socket_core, pages)
    assert result.misses == 2             # node 1's L3 was cold


def test_l3_counters_attributed_to_accessing_socket(machine):
    pages = _place(machine, 3, node=0)
    core_on_node1 = machine.topology.cores_of_node(1)[0]
    machine.touch(0.0, core_on_node1, pages)
    assert machine.counters.get("l3_miss", 1) == 3
    assert machine.counters.get("l3_miss", 0) == 0


def test_bank_contention_raises_stalls(machine):
    first_pages = _place(machine, 16, node=0)
    second_pages = _place(machine, 16, node=0)
    quiet = machine.touch(0.0, 0, first_pages)
    machine.flush_caches()
    # immediately queue more work on the same bank: it must wait
    busy = machine.touch(0.0, 1, second_pages)
    assert busy.stall_time > quiet.stall_time


def test_account_busy_accumulates(machine):
    machine.account_busy(2, 0.25)
    machine.account_busy(2, 0.25)
    assert machine.counters.get("busy_time", 2) == pytest.approx(0.5)


def test_account_busy_rejects_negative(machine):
    with pytest.raises(HardwareError):
        machine.account_busy(0, -1.0)


@pytest.mark.parametrize("core, seconds", [
    (0, float("nan")), (0, float("inf")), (1, float("-inf")),
    (99, 1.0), (-3, 2.0), (4, 0.5),
])
def test_account_busy_rejects_bad_core_or_duration(machine, core, seconds):
    machine.account_busy(0, 0.25)
    before = _machine_state(machine)
    with pytest.raises(HardwareError) as excinfo:
        machine.account_busy(core, seconds)
    message = str(excinfo.value)
    assert f"core {core}" in message and repr(seconds) in message
    assert _machine_state(machine) == before
    assert machine.counters.total("busy_time") == 0.25


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("hand_split", [False, True])
@pytest.mark.parametrize("core", [-1, 4])
def test_touch_out_of_range_core_leaves_state_unchanged(machine, write,
                                                        hand_split, core):
    assert core in (-1, machine.topology.n_cores)
    local = _place(machine, 4, node=0)
    remote = _place(machine, 4, node=1)
    # warm both sockets' caches, queue bank and link work, count
    machine.touch(0.0, 0, local + remote)
    machine.touch_write(0.0, 2, local[:2])
    before = _machine_state(machine)
    pages = range(local[0], remote[-1] + 1)
    placed = ([(pages, machine.memory.home_runs(pages.start, pages.stop))]
              if hand_split else None)
    touch = machine.touch_write if write else machine.touch
    with pytest.raises(HardwareError, match=f"core {core} out of range"):
        touch(1e-3, core, pages, placed=placed)
    assert _machine_state(machine) == before


def test_access_result_total_bytes(machine):
    pages = _place(machine, 2, node=0) + _place(machine, 2, node=1)
    result = machine.touch(0.0, 0, pages)
    # every missed page is pulled from DRAM, locally or remotely
    assert (result.bytes_local + result.bytes_remote
            == 4 * machine.config.page_bytes)
