"""HyperTransport-style interconnect with bandwidth-aware transfer costs.

Remote page fetches stream over a point-to-point link between the requesting
socket and the page's home node.  Two effects matter for the paper:

* the raw **per-link bandwidth** bounds how fast one remote miss resolves;
* **contention** — when many threads pull remote data concurrently (the
  256-client runs of Figs 4 and 14) the shared fabric saturates and every
  transfer waits behind earlier ones.

Contention is modelled with deterministic FIFO **reservation channels**
(:class:`FifoChannel`): each transfer reserves the directed link for
``bytes / bandwidth`` seconds starting no earlier than the link's previous
release, and the requester stalls for queue wait plus service.  The same
primitive models DRAM banks in :class:`~repro.hardware.machine.Machine`;
it hard-caps aggregate throughput at the channel bandwidth — the property
that makes a *local optimum number of cores* exist at all.
"""

from __future__ import annotations

from ..config import MachineConfig
from ..errors import HardwareError
from .counters import CounterBank
from .topology import Topology


class FifoChannel:
    """A bandwidth-limited resource with deterministic FIFO reservations.

    A request of ``n`` bytes at time ``now`` starts service no earlier than
    the channel's previous release, holds the channel for ``n / bandwidth``
    seconds and stalls the requester for queue wait plus service.  Aggregate
    throughput is therefore hard-capped at ``bandwidth`` regardless of how
    many requesters pile on — queueing, not magic parallelism.
    """

    __slots__ = ("bandwidth", "_free_at")

    def __init__(self, bandwidth: float):
        if bandwidth <= 0:
            raise HardwareError("channel bandwidth must be positive")
        self.bandwidth = bandwidth
        self._free_at = 0.0

    def reserve(self, now: float, n_bytes: float) -> float:
        """Reserve the channel; returns the absolute *completion time*.

        Callers overlap several reservations (pipelined page fetches) by
        taking the max completion rather than summing waits.
        """
        if n_bytes < 0:
            raise HardwareError("cannot reserve a negative byte count")
        start = now if now > self._free_at else self._free_at
        service = n_bytes / self.bandwidth
        self._free_at = start + service
        return self._free_at


class Interconnect:
    """Traffic accounting and transfer-time model for the NUMA fabric."""

    def __init__(self, topology: Topology, counters: CounterBank):
        self.topology = topology
        self.counters = counters
        config: MachineConfig = topology.config
        self.link_bandwidth = config.ht_link_bandwidth
        # one directed channel per (src, dst) socket pair
        self._links: dict[tuple[int, int], FifoChannel] = {}
        for src in topology.all_nodes():
            for dst in topology.all_nodes():
                if src != dst:
                    self._links[(src, dst)] = FifoChannel(
                        self.link_bandwidth)

    def link(self, src_node: int, dst_node: int) -> FifoChannel:
        """The directed channel between two distinct nodes."""
        try:
            return self._links[(src_node, dst_node)]
        except KeyError:
            raise HardwareError(
                f"no link {src_node}->{dst_node}") from None

    def transfer(self, start: float, src_node: int, dst_node: int,
                 n_bytes: int) -> float:
        """Move ``n_bytes`` from ``src_node``'s bank toward ``dst_node``.

        ``start`` is the earliest the transfer can begin (typically the
        completion time of the home-bank read).  Returns the absolute
        completion time and records per-node ``ht_tx_bytes`` counters
        (attributed to the sending node, matching how likwid's HT group
        counts outbound link traffic).
        """
        if src_node == dst_node:
            raise HardwareError("transfer() is for remote moves only")
        if n_bytes < 0:
            raise HardwareError("cannot transfer a negative byte count")
        self.counters.add("ht_tx_bytes", src_node, n_bytes)
        hops = self.topology.distance(src_node, dst_node)
        done = self.link(src_node, dst_node).reserve(start, n_bytes)
        if hops > 1:
            done += (hops - 1) * (n_bytes / self.link_bandwidth)
        return done
