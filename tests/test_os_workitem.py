"""Work items and the list work source."""

import pytest

from repro.errors import SchedulerError
from repro.opsys.workitem import ListWorkSource, WorkItem
from repro.pages import PageSegments


def test_progress_counters():
    item = WorkItem("scan", reads=list(range(10)), writes=[100, 101],
                    cycles=1200.0)
    assert item.total_pages == 12
    assert item.remaining_pages == 12
    assert item.cycles_per_page() == pytest.approx(100.0)
    assert not item.done


def test_take_reads_then_writes():
    item = WorkItem("scan", reads=[0, 1, 2], writes=[10, 11])
    assert list(item.take_reads(2)) == [0, 1]
    assert list(item.take_reads(5)) == [2]
    assert list(item.take_writes(5)) == [10, 11]
    assert item.remaining_pages == 0


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 100])
def test_list_footprint_streams_the_list(chunk):
    """A page list is held as runs but streams exactly its pages, in
    order: gaps, duplicates and descending ids included."""
    reads = [5, 6, 7, 2, 3, 3, 4, 9, 8, 7, 20, 21, 5]
    writes = [40, 41, 43, 42]
    item = WorkItem("scan", reads=reads, writes=writes)
    assert len(item.reads) == len(reads)
    assert item.total_pages == len(reads) + len(writes)
    streamed, written = [], []
    while item.remaining_pages:
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
    item.retire_cycles(500.0)
    assert item.remaining_cycles == 0.0


def test_done_requires_pages_and_cycles():
    item = WorkItem("x", reads=[1], cycles=100.0)
    item.retire_cycles(100.0)
    assert not item.done
    item.take_reads(1)
    assert item.done


def test_force_complete_cycles():
    item = WorkItem("x", cycles=1e6)
    item.force_complete_cycles()
    assert item.remaining_cycles == 0.0


def test_fixed_cycles_add_to_total():
    item = WorkItem("x", reads=[1], cycles=100.0, fixed_cycles=50.0)
    assert item.total_cycles == 150.0


def test_negative_cycles_rejected():
    with pytest.raises(SchedulerError):
        WorkItem("x", cycles=-1.0)


def test_pure_compute_item_has_zero_cpp():
    item = WorkItem("x", cycles=100.0)
    assert item.cycles_per_page() == 0.0


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

    def test_push_extends(self):
        source = ListWorkSource()
        assert source.finished
        source.push(WorkItem("late"))
        assert not source.finished

    def test_register_waiter_is_an_error(self):
        source = ListWorkSource()
        with pytest.raises(SchedulerError):
            source.register_waiter(None)
