"""Allocation modes: *where* the next core is allocated or released.

The paper defines three (§IV-B), all over the mapping
``core(i, j) = d*i + j`` for node ``i``, local index ``j`` on a ``d``-ary
machine:

* **Sparse** — iterate ``j`` outer, ``i`` inner: one core at a time on a
  *different* node (round-robin across nodes);
* **Dense** — iterate ``i`` outer, ``j`` inner: fill a node before moving
  to the next;
* **Adaptive Priority** — allocate in the node with the *most* resident
  pages of the database address space, release from the node with the
  *fewest* (backed by :class:`~repro.core.priority.NodePriorityQueue`).

Modes are pure policies: they look at the current mask (and, for adaptive,
the priority queue) and name a core; the controller performs the change.
"""

from __future__ import annotations

from ..errors import AllocationError
from ..hardware.topology import Topology
from .priority import NodePriorityQueue


class AllocationMode:
    """Interface for allocation/release placement policies."""

    name = "abstract"

    def __init__(self, topology: Topology):
        self.topology = topology

    def allocation_order(self) -> list[int]:
        """Static modes define a full ordering; adaptive has none."""
        raise NotImplementedError

    def next_allocation(self, allocated: frozenset[int]) -> int:
        """Core to allocate next, given the current mask."""
        for core in self.allocation_order():
            if core not in allocated:
                return core
        raise AllocationError("all cores are already allocated")

    def next_release(self, allocated: frozenset[int]) -> int:
        """Core to release next, given the current mask."""
        for core in reversed(self.allocation_order()):
            if core in allocated:
                return core
        raise AllocationError("no core to release")


class SparseMode(AllocationMode):
    """One core at a time on a different node (paper Fig 12a)."""

    name = "sparse"

    def allocation_order(self) -> list[int]:
        topo = self.topology
        return [topo.core(i, j)
                for j in range(topo.cores_per_socket)
                for i in range(topo.n_sockets)]


class DenseMode(AllocationMode):
    """Fill each node before moving to the next (paper Fig 12b)."""

    name = "dense"

    def allocation_order(self) -> list[int]:
        topo = self.topology
        return [topo.core(i, j)
                for i in range(topo.n_sockets)
                for j in range(topo.cores_per_socket)]


class AdaptivePriorityMode(AllocationMode):
    """Allocate near the data, release far from it (paper §IV-B2)."""

    name = "adaptive"

    def __init__(self, topology: Topology, queue: NodePriorityQueue):
        super().__init__(topology)
        if queue.n_nodes != topology.n_sockets:
            raise AllocationError("queue size does not match the topology")
        self.queue = queue

    def allocation_order(self) -> list[int]:
        """Snapshot ordering under the *current* priorities: nodes by
        priority, cores in order within each node."""
        order: list[int] = []
        for node in self.queue.by_priority():
            order.extend(self.topology.cores_of_node(node))
        return order


def make_mode(name: str, topology: Topology,
              queue: NodePriorityQueue | None = None) -> AllocationMode:
    """Factory: ``"sparse"``, ``"dense"`` or ``"adaptive"``."""
    if name == "sparse":
        return SparseMode(topology)
    if name == "dense":
        return DenseMode(topology)
    if name == "adaptive":
        return AdaptivePriorityMode(
            topology, queue or NodePriorityQueue(topology.n_sockets))
    raise AllocationError(f"unknown allocation mode {name!r}")
