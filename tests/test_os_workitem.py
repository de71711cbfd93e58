"""Work items and the list work source."""

import pytest

from repro.errors import SchedulerError
from repro.hardware.prebuilt import small_numa
from repro.opsys.system import OperatingSystem
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.pages import PageSegments


def run_alone(item: WorkItem) -> OperatingSystem:
    """Execute ``item`` on one thread of a fresh system."""
    os_ = OperatingSystem(small_numa())
    os_.spawn_thread(ListWorkSource([item]))
    os_.run_until_idle()
    assert item.done
    return os_


def test_progress_counters():
    item = WorkItem("scan", reads=list(range(10)), writes=[100, 101],
                    cycles=1200.0)
    assert not item.done
    assert len(item.take_reads(100)) == 10
    assert len(item.take_writes(100)) == 2
    # every page is streamed, but no cycle is retired yet
    assert not item.done
    assert item._cycles_done == 0.0


def test_take_reads_then_writes():
    item = WorkItem("scan", reads=[0, 1, 2], writes=[10, 11])
    assert list(item.take_reads(2)) == [0, 1]
    assert list(item.take_reads(5)) == [2]
    assert list(item.take_writes(5)) == [10, 11]
    assert item.done


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 100])
def test_list_footprint_streams_the_list(chunk):
    """A page list is held as runs but streams exactly its pages, in
    order: gaps, duplicates and descending ids included."""
    reads = [5, 6, 7, 2, 3, 3, 4, 9, 8, 7, 20, 21, 5]
    writes = [40, 41, 43, 42]
    item = WorkItem("scan", reads=reads, writes=writes)
    assert len(item.reads) == len(reads)
    assert len(item.writes) == len(writes)
    streamed, written = [], []
    while not item.done:
        taken = item.take_reads(chunk)
        put = item.take_writes(chunk - len(taken))
        # slices come back as runs, never as page lists
        assert type(taken) in (range, PageSegments)
        assert type(put) in (range, PageSegments)
        streamed += taken
        written += put
    assert streamed == reads
    assert written == writes


def test_runs_are_kept_as_given():
    pages = range(3, 9)
    segments = PageSegments([range(0, 2), [7, 5]])
    item = WorkItem("scan", reads=segments, writes=pages)
    assert item.reads is segments and item.writes is pages


def test_retire_cycles_clamped():
    item = WorkItem("x", cycles=100.0)
    run_alone(item)
    # the scheduler rounds compute up, but never past the budget
    assert item._cycles_done == item._total_cycles


def test_done_requires_pages_and_cycles():
    item = WorkItem("x", reads=[1], cycles=100.0)
    item._cycles_done = 100.0  # the scheduler retires cycles in place
    assert not item.done
    item.take_reads(1)
    assert item.done


def test_force_complete_cycles():
    os_ = OperatingSystem(small_numa())
    pages = list(os_.machine.memory.allocate(3))
    item = WorkItem("x", reads=pages, cycles=1e6)
    os_.spawn_thread(ListWorkSource([item]))
    os_.run_until_idle()
    # whatever float remainder the per-page cycle shares leave, the item
    # ends with its whole budget retired
    assert item.done
    assert item._cycles_done == item._total_cycles


def test_fixed_cycles_add_to_total():
    item = WorkItem("x", reads=[1], cycles=100.0, fixed_cycles=50.0)
    assert item._total_cycles == 150.0
    item._cycles_done = 100.0
    assert not item.done


def test_negative_cycles_rejected():
    with pytest.raises(SchedulerError):
        WorkItem("x", cycles=-1.0)


def test_pure_compute_item_has_zero_cpp():
    item = WorkItem("x", cycles=2.8e6)
    os_ = run_alone(item)
    # no page carries a share of the cycles: all of them run as compute
    assert os_.counters.total("useful_time") == pytest.approx(
        item.cycles / os_.machine.config.frequency_hz)


class TestListWorkSource:
    def test_fifo_order(self):
        items = [WorkItem(f"i{k}") for k in range(3)]
        source = ListWorkSource(items)
        assert source.next_item(None) is items[0]
        assert source.next_item(None) is items[1]

    def test_finished_when_empty(self):
        source = ListWorkSource([WorkItem("only")])
        assert not source.finished
        source.next_item(None)
        assert source.finished
        assert source.next_item(None) is None

    def test_register_waiter_is_an_error(self):
        source = ListWorkSource()
        with pytest.raises(SchedulerError):
            source.register_waiter(None)
