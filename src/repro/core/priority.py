"""The adaptive mode's priority queue over NUMA nodes (paper §IV-B2).

Each entry of the paper's queue holds a database thread's PID, its address
space and its page count per NUMA node; the node with the largest aggregate
count has the highest priority (next core is allocated there) and the node
with the smallest count the lowest (next core is released there).

Here the per-thread histograms come from the VM layer
(:attr:`repro.opsys.thread.SimThread.pages_by_node`), and when no database
thread is live (between queries) the queue falls back to the machine-wide
page placement histogram — the resident database itself.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..opsys.thread import SimThread


class NodePriorityQueue:
    """Aggregated page counts per node, with priority ordering."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self._counts = [0.0] * n_nodes

    def update(self, threads: Iterable[SimThread],
               fallback: list[int] | None = None) -> None:
        """Recompute node counts from the live threads' address spaces.

        ``fallback`` (typically the memory system's placement histogram) is
        used when no thread contributes any pages.
        """
        counts = [0.0] * self.n_nodes
        any_pages = False
        for thread in threads:
            for node, pages in thread.pages_by_node.items():
                if 0 <= node < self.n_nodes and pages > 0:
                    counts[node] += pages
                    any_pages = True
        if not any_pages and fallback is not None:
            counts = [float(v) for v in fallback[:self.n_nodes]]
        self._counts = counts

    def counts(self) -> list[float]:
        """Current aggregate counts, indexed by node."""
        return list(self._counts)

    def by_priority(self) -> list[int]:
        """Node ids from highest to lowest priority.

        Ties break toward lower node ids, so behaviour is deterministic.
        """
        return sorted(range(self.n_nodes),
                      key=lambda n: (-self._counts[n], n))

    def hottest(self) -> int:
        """The highest-priority node (most pages)."""
        return self.by_priority()[0]

    def coldest(self) -> int:
        """The lowest-priority node (fewest pages)."""
        return self.by_priority()[-1]
