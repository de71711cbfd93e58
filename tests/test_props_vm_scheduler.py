"""Property-based tests: VM first-touch and scheduler conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.machine import Machine
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.thread import ThreadState
from repro.opsys.vm import VirtualMemory
from repro.opsys.workitem import ListWorkSource, WorkItem


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=19),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=100))
@settings(max_examples=50)
def test_first_touch_home_is_first_toucher(touches):
    vm = VirtualMemory(Machine(small_numa()))
    pages = list(vm.machine.memory.allocate(20))
    first_toucher: dict[int, int] = {}
    for page_idx, node in touches:
        page = pages[page_idx]
        vm.touch_pages([page], node)
        first_toucher.setdefault(page, node)
    for page, node in first_toucher.items():
        assert vm.machine.memory.home(page) == node


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=19),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=100))
@settings(max_examples=50)
def test_minor_faults_bounded_by_pages_times_nodes(touches):
    vm = VirtualMemory(Machine(small_numa()))
    pages = list(vm.machine.memory.allocate(20))
    for page_idx, node in touches:
        vm.touch_pages([pages[page_idx]], node)
    distinct = {(p, n) for p, n in touches}
    assert vm.counters.total("minor_faults") == len(distinct)


@given(st.lists(st.tuples(
    st.integers(min_value=1, max_value=24),     # pages per item
    st.floats(min_value=1e5, max_value=5e7)),   # cycles per item
    min_size=1, max_size=12),
    st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_scheduler_completes_all_work(items_spec, seed):
    """No work is lost or duplicated, whatever the shape of the load."""
    os_ = OperatingSystem(small_numa())
    completed = []
    threads = []
    for idx, (n_pages, cycles) in enumerate(items_spec):
        pages = list(os_.machine.memory.allocate(n_pages))
        item = WorkItem(f"item{idx}", reads=pages, cycles=cycles,
                        on_complete=lambda it: completed.append(it.label))
        threads.append(os_.spawn_thread(ListWorkSource([item])))
    os_.run_until_idle()
    assert sorted(completed) == sorted(
        f"item{i}" for i in range(len(items_spec)))
    assert all(t.state is ThreadState.DONE for t in threads)
    assert os_.scheduler.live_threads() == 0


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_busy_time_bounded_by_cores_times_makespan(n_threads, n_cores):
    os_ = OperatingSystem(small_numa())
    os_.cpuset.set_mask(list(range(n_cores)))
    for _ in range(n_threads):
        pages = list(os_.machine.memory.allocate(16))
        os_.spawn_thread(ListWorkSource(
            [WorkItem("w", reads=pages, cycles=1e7)]))
    os_.run_until_idle()
    busy = os_.counters.total("busy_time")
    assert busy <= n_cores * os_.now * (1 + 1e-6)
    assert os_.counters.total("useful_time") <= busy + 1e-9
