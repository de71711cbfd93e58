"""Allocation modes and the node priority queue."""

import pytest

from repro.config import MachineConfig
from repro.core.modes import (AdaptivePriorityMode, DenseMode, SparseMode,
                              make_mode)
from repro.core.priority import NodePriorityQueue
from repro.errors import AllocationError
from repro.hardware.topology import Topology
from repro.opsys.thread import SimThread
from repro.opsys.workitem import ListWorkSource


@pytest.fixture
def topo():
    return Topology(MachineConfig(n_sockets=4, cores_per_socket=4))


class TestSparseDense:
    def test_sparse_order_round_robins_nodes(self, topo):
        order = SparseMode(topo).allocation_order()
        # paper Fig 12a: one core at a time on a different node
        assert order[:4] == [0, 4, 8, 12]
        assert order[4:8] == [1, 5, 9, 13]
        assert sorted(order) == list(range(16))

    def test_dense_order_fills_nodes(self, topo):
        order = DenseMode(topo).allocation_order()
        # paper Fig 12b: fill node 0 before node 1
        assert order[:4] == [0, 1, 2, 3]
        assert order[4:8] == [4, 5, 6, 7]

    def test_next_allocation_skips_allocated(self, topo):
        mode = SparseMode(topo)
        assert mode.next_allocation(frozenset({0, 4})) == 8

    def test_release_is_reverse_walk(self, topo):
        mode = DenseMode(topo)
        assert mode.next_release(frozenset({0, 1, 5})) == 5
        assert mode.next_release(frozenset({0})) == 0

    def test_all_allocated_rejected(self, topo):
        mode = SparseMode(topo)
        with pytest.raises(AllocationError):
            mode.next_allocation(frozenset(range(16)))

    def test_nothing_to_release_rejected(self, topo):
        with pytest.raises(AllocationError):
            DenseMode(topo).next_release(frozenset())

    def test_initial_mask_prefix_of_order(self, topo):
        mode = SparseMode(topo)
        mask: list[int] = []
        for _ in range(3):
            mask.append(mode.next_allocation(frozenset(mask)))
        assert mask == mode.allocation_order()[:3] == [0, 4, 8]

    def test_allocate_release_are_inverses(self, topo):
        mode = DenseMode(topo)
        allocated: set[int] = set()
        for _ in range(16):
            allocated.add(mode.next_allocation(frozenset(allocated)))
        assert allocated == set(range(16))
        for _ in range(16):
            allocated.discard(mode.next_release(frozenset(allocated)))
        assert allocated == set()


class TestPriorityQueue:
    def _thread_with(self, pages_by_node):
        thread = SimThread(ListWorkSource(), tid=1)
        thread.pages_by_node.update(pages_by_node)
        return thread

    def test_update_aggregates_threads(self):
        queue = NodePriorityQueue(4)
        queue.update([self._thread_with({0: 10, 1: 2}),
                      self._thread_with({1: 5})])
        assert queue.counts() == [10.0, 7.0, 0.0, 0.0]
        assert queue.hottest() == 0
        assert queue.coldest() in (2, 3)

    def test_priority_order_desc_with_tiebreak(self):
        queue = NodePriorityQueue(4)
        queue.update([self._thread_with({2: 5, 1: 5})])
        assert queue.by_priority() == [1, 2, 0, 3]

    def test_fallback_when_no_thread_pages(self):
        queue = NodePriorityQueue(4)
        queue.update([], fallback=[1, 9, 3, 0])
        assert queue.hottest() == 1

    def test_thread_pages_override_fallback(self):
        queue = NodePriorityQueue(2)
        queue.update([self._thread_with({1: 3})], fallback=[100, 0])
        assert queue.hottest() == 1


class TestAdaptiveMode:
    def test_allocates_on_hottest_node_first(self, topo):
        queue = NodePriorityQueue(4)
        queue.update([], fallback=[0, 0, 50, 10])
        mode = AdaptivePriorityMode(topo, queue)
        assert mode.next_allocation(frozenset()) == 8  # node 2
        # node 2 partially full: keep filling it
        assert mode.next_allocation(frozenset({8})) == 9
        # node 2 full: next hottest (node 3)
        full_node2 = frozenset({8, 9, 10, 11})
        assert mode.next_allocation(full_node2) == 12

    def test_releases_from_coldest_node(self, topo):
        queue = NodePriorityQueue(4)
        queue.update([], fallback=[50, 10, 5, 0])
        mode = AdaptivePriorityMode(topo, queue)
        allocated = frozenset({0, 4, 12})
        assert mode.next_release(allocated) == 12  # node 3 is coldest

    def test_allocation_order_follows_priority(self, topo):
        queue = NodePriorityQueue(4)
        queue.update([], fallback=[0, 100, 0, 0])
        mode = AdaptivePriorityMode(topo, queue)
        assert mode.allocation_order()[:4] == [4, 5, 6, 7]

    def test_queue_size_must_match(self, topo):
        with pytest.raises(AllocationError):
            AdaptivePriorityMode(topo, NodePriorityQueue(2))

    def test_exhaustion_rejected(self, topo):
        mode = AdaptivePriorityMode(topo, NodePriorityQueue(4))
        with pytest.raises(AllocationError):
            mode.next_allocation(frozenset(range(16)))
        with pytest.raises(AllocationError):
            mode.next_release(frozenset())


def test_make_mode_factory(topo):
    assert isinstance(make_mode("sparse", topo), SparseMode)
    assert isinstance(make_mode("dense", topo), DenseMode)
    assert isinstance(make_mode("adaptive", topo), AdaptivePriorityMode)
    with pytest.raises(AllocationError):
        make_mode("random", topo)
