"""The NUMA-aware engine: the paper's SQL Server 2017 stand-in.

Differences from the MonetDB-like engine (paper §V-C / §VI):

* base data is **partitioned round-robin across NUMA nodes** at load time
  (columnstore segments spread over memory banks);
* each query worker is **pinned** to a core of the node owning its data
  partition, so threads and data stay together without OS involvement;
* when the elastic mechanism shrinks the mask below a worker's pinned core,
  the scheduler falls back to a sibling core on the same node (and only
  then anywhere) — "less effort to maintain coherence of such association",
  as the paper puts it.
"""

from __future__ import annotations

from ..config import EngineConfig
from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem
from .catalog import Catalog
from .cost import CostModel
from .engine import DatabaseEngine


class NumaAwareEngine(DatabaseEngine):
    """SQL Server-like engine: partitioned placement, pinned workers."""

    def __init__(self, os: OperatingSystem, catalog: Catalog,
                 byte_scale: float = 1.0,
                 config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 tenant: str = DEFAULT_TENANT):
        super().__init__(os, catalog, byte_scale,
                         config or EngineConfig(loader_node=None),
                         cost, name="sqlserver", tenant=tenant)
        self._node_rotor = 0

    def pinned_nodes(self, n_workers: int) -> list[int | None]:
        """Affine worker ``w`` to the node that owns partition ``w``.

        Partition ``w`` of ``n_workers`` covers pages in chunk
        ``(w * n_sockets) // n_workers`` of the chunked placement, so the
        worker is node-affined there; within the node the scheduler picks
        the least loaded core (the SQLOS soft-NUMA behaviour).  Queries
        with fewer workers than nodes read every chunk anyway, so their
        workers are spread round-robin across queries to avoid piling
        every small query onto node 0.
        """
        topology = self.os.topology
        n_sockets = topology.n_sockets
        nodes: list[int | None] = []
        for w in range(n_workers):
            if n_workers >= n_sockets:
                node = (w * n_sockets) // n_workers
            else:
                node = (w + self._node_rotor) % n_sockets
            nodes.append(node)
        self._node_rotor += 1
        return nodes
