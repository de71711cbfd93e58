"""Property-based tests: allocation-mode invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.core.modes import (AdaptivePriorityMode, DenseMode, SparseMode,
                              make_mode)
from repro.core.priority import NodePriorityQueue
from repro.hardware.topology import Topology

shapes = st.tuples(st.integers(min_value=1, max_value=6),
                   st.integers(min_value=1, max_value=6))


def topo_for(shape):
    sockets, cores = shape
    return Topology(MachineConfig(n_sockets=sockets,
                                  cores_per_socket=cores))


@given(shapes, st.sampled_from(["sparse", "dense"]))
@settings(max_examples=50)
def test_static_order_is_a_permutation(shape, mode_name):
    topo = topo_for(shape)
    order = make_mode(mode_name, topo).allocation_order()
    assert sorted(order) == list(topo.all_cores())


@given(shapes, st.sampled_from(["sparse", "dense"]),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=60)
def test_full_walk_allocates_every_core_once(shape, mode_name, seed):
    topo = topo_for(shape)
    mode = make_mode(mode_name, topo)
    allocated: set[int] = set()
    for _ in range(topo.n_cores):
        core = mode.next_allocation(frozenset(allocated))
        assert core not in allocated
        allocated.add(core)
    assert allocated == set(topo.all_cores())


@given(shapes, st.data())
@settings(max_examples=50)
def test_adaptive_allocation_respects_priorities(shape, data):
    topo = topo_for(shape)
    counts = data.draw(st.lists(
        st.integers(min_value=0, max_value=1000),
        min_size=topo.n_sockets, max_size=topo.n_sockets))
    queue = NodePriorityQueue(topo.n_sockets)
    queue.update([], fallback=counts)
    mode = AdaptivePriorityMode(topo, queue)
    core = mode.next_allocation(frozenset())
    assert topo.node_of_core(core) == queue.hottest()
    release_from = mode.next_release(frozenset(topo.all_cores()))
    assert topo.node_of_core(release_from) == queue.coldest()


@given(shapes, st.data())
@settings(max_examples=50)
def test_release_only_names_allocated_cores(shape, data):
    topo = topo_for(shape)
    mode = DenseMode(topo)
    subset = data.draw(st.sets(
        st.sampled_from(list(topo.all_cores())), min_size=1))
    released = mode.next_release(frozenset(subset))
    assert released in subset


@given(shapes, st.data())
@settings(max_examples=50)
def test_allocation_never_names_allocated_cores(shape, data):
    topo = topo_for(shape)
    mode = SparseMode(topo)
    universe = list(topo.all_cores())
    subset = data.draw(st.sets(st.sampled_from(universe),
                               max_size=len(universe) - 1))
    core = mode.next_allocation(frozenset(subset))
    assert core not in subset


@given(shapes, st.integers(min_value=1, max_value=10))
@settings(max_examples=50)
def test_initial_mask_size_and_uniqueness(shape, k):
    topo = topo_for(shape)
    k = min(k, topo.n_cores)
    mode = DenseMode(topo)
    mask: list[int] = []
    for _ in range(k):
        mask.append(mode.next_allocation(frozenset(mask)))
    assert len(mask) == k
    assert len(set(mask)) == k
