"""A morsel-driven engine: the HyPer model from the paper's related work.

Leis et al.'s morsel-driven parallelism [2] — which the paper contrasts
with Volcano in §VI — splits each pipeline into many small *morsels*
dispatched at run time to worker threads pinned one per core, each
preferring morsels whose data is NUMA-local.  The paper argues its
mechanism is *orthogonal*: it "can deliver to morsels a dynamic sub-set
of cores".  This engine exists to test that claim on the simulator.

Differences from :class:`~repro.db.engine.MonetDBLike`:

* parallel stages compile into **many morsels** (a few MB of input each)
  rather than one partition per worker — except partial aggregations,
  which build **per-worker** local tables exactly as HyPer does;
* the worker pool is **pinned one worker per visible core**;
* workers **pull NUMA-local morsels first** (dispatcher locality).
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ..config import EngineConfig
from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem
from ..opsys.thread import SimThread
from ..opsys.workitem import WorkItem
from .catalog import Catalog
from .cost import CostModel, compile_profile
from .engine import DatabaseEngine
from .plan import StageProfile
from .volcano import QueryExecution

#: target input bytes per morsel (HyPer uses ~100k tuples; scaled to the
#: simulated footprint this lands in the low megabytes)
MORSEL_BYTES = 4 * 1024 * 1024


class MorselQueryExecution(QueryExecution):
    """Query execution whose workers prefer NUMA-local morsels."""

    #: how many pending morsels a worker inspects before giving up on
    #: locality and taking the head (bounds dispatch cost)
    SCAN_DEPTH = 16

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # dispatch is the hot path: bind the instruments once
        from ..obs.metrics import TIME_BUCKETS
        metrics = self.os.obs.metrics
        self._c_dispatches = metrics.counter("db.morsel.dispatches")
        self._c_local = metrics.counter("db.morsel.local_dispatches")
        self._h_exec = metrics.histogram("db.morsel.exec_seconds",
                                         TIME_BUCKETS)

    def _item_done(self, item: WorkItem) -> None:
        if item.started_at is not None:
            self._h_exec.observe(self.os.now - item.started_at)
        super()._item_done(item)

    def next_item(self, thread: SimThread) -> WorkItem | None:
        pending = self._pending
        if not pending:
            return None
        self._c_dispatches.inc()
        core = thread.core
        if core is None:
            return pending.popleft()
        node = self.os.topology.node_of_core(core)
        memory = self.os.machine.memory
        for index, item in enumerate(pending):
            if index >= self.SCAN_DEPTH:
                break
            reads = item.reads
            if reads and memory.home(reads[0]) == node:
                del pending[index]
                self._c_local.inc()
                return item
        return pending.popleft()


class MorselEngine(DatabaseEngine):
    """HyPer-style engine: pinned workers, dynamic morsel dispatch."""

    def __init__(self, os: OperatingSystem, catalog: Catalog,
                 byte_scale: float = 1.0,
                 config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 morsel_bytes: int = MORSEL_BYTES,
                 tenant: str = DEFAULT_TENANT):
        super().__init__(os, catalog, byte_scale,
                         config or EngineConfig(loader_node=None),
                         cost, name="morsel", tenant=tenant)
        self.morsel_bytes = morsel_bytes

    # ------------------------------------------------------------------

    def _stage_partitions(self, n_workers: int,
                          ) -> Callable[[StageProfile], int]:
        def partitions(stage: StageProfile) -> int:
            if stage.output_per_worker:
                # per-worker local aggregation tables, as in HyPer
                return n_workers
            input_bytes = stage.output_bytes + sum(
                self.catalog.table(t).bat(c).sim_bytes
                for t, c in stage.base_reads)
            morsels = math.ceil(input_bytes / self.morsel_bytes)
            return max(min(morsels, 256), n_workers)

        return partitions

    def pinned_nodes(self, n_workers: int) -> list[int | None]:
        """Workers affined round-robin over the visible cores' nodes.

        HyPer pins pool threads to cores; under an elastic mask a hard
        per-core pin strands every single-worker query on one core, so
        the affinity here is node-level (the scheduler keeps a worker on
        its node's least-loaded visible core and relaxes under
        congestion) — the dispatcher's work stealing, in effect.
        """
        visible = self.cpuset.allowed_sorted()
        topo = self.os.topology
        return [topo.node_of_core(visible[w % len(visible)])
                for w in range(n_workers)]

    def submit(self, name: str, client_id: int = 0, on_done=None,
               ) -> MorselQueryExecution:
        """Launch one query with morsel-grained stages."""
        from ..errors import DatabaseError

        if not self.catalog.loaded:
            raise DatabaseError("load() the engine before submitting")
        profile = self.profile(name)
        n_workers = self.worker_count()
        compiled = compile_profile(
            profile, self.catalog, n_workers, self.os.machine.memory,
            self.cost, stage_partitions=self._stage_partitions(n_workers))
        execution = MorselQueryExecution(compiled, self.os,
                                         client_id=client_id,
                                         on_done=on_done)
        execution.start(n_workers,
                        pinned_nodes=self.pinned_nodes(n_workers),
                        managed=self.config.managed_threads,
                        tenant=self.tenant)
        return execution
