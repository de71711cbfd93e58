"""Volcano-style horizontal parallelism: staged query execution.

A :class:`QueryExecution` is a :class:`~repro.opsys.thread.WorkSource` fed
by a compiled query.  It publishes one stage's partitions at a time; workers
pull partitions, and when the last partition of a stage completes the next
stage is published (the dataflow barrier between MAL instruction groups —
compare the paper's Fig 6 where ``thetasubselect`` fully precedes
``subselect``).  Workers that find no partition block and are woken at the
next stage, which is exactly the wake-up point where the OS re-places them
(the source of the migrations in Figs 5/16).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem
from ..opsys.thread import SimThread
from ..opsys.workitem import WorkItem
from ..sim.tracing import QueryRecord
from .cost import CompiledQuery


class QueryExecution:
    """One running query: a staged work source plus its worker pool."""

    def __init__(self, compiled: CompiledQuery, os: OperatingSystem,
                 client_id: int = 0,
                 on_done: Callable[["QueryExecution"], None] | None = None):
        self.compiled = compiled
        self.os = os
        self.client_id = client_id
        self.on_done = on_done
        self.query_name = compiled.name
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self._stage_idx = -1
        self._pending: deque[WorkItem] = deque()
        self._outstanding = 0
        self._finished = False
        self._waiters: list[SimThread] = []
        self._workers: list[SimThread] = []
        self._workers_alive = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, n_workers: int,
              pinned_nodes: Sequence[int | None] | None = None,
              managed: bool = True,
              tenant: str = DEFAULT_TENANT) -> None:
        """Publish the first stage and spawn the worker pool."""
        if self.start_time is not None:
            raise RuntimeError("query already started")
        self.start_time = self.os.now
        self._advance_stage()
        for w in range(n_workers):
            node = pinned_nodes[w] if pinned_nodes is not None else None
            thread = self.os.spawn_thread(
                self, name=f"{self.query_name}.w{w}", pinned_node=node,
                managed=managed, on_exit=self._worker_exited, tenant=tenant)
            self._workers.append(thread)
            self._workers_alive += 1

    @property
    def workers(self) -> list[SimThread]:
        """The worker pool (for trace analysis)."""
        return list(self._workers)

    @property
    def elapsed(self) -> float:
        """Query latency once finished."""
        if self.start_time is None or self.finish_time is None:
            raise RuntimeError("query has not finished")
        return self.finish_time - self.start_time

    # ------------------------------------------------------------------
    # WorkSource protocol
    # ------------------------------------------------------------------

    def next_item(self, thread: SimThread) -> WorkItem | None:
        """Hand the next partition of the current stage, if any."""
        if self._pending:
            return self._pending.popleft()
        return None

    @property
    def finished(self) -> bool:
        """True once every stage has completed."""
        return self._finished

    def register_waiter(self, thread: SimThread) -> None:
        """Called by the scheduler when a worker blocks."""
        self._waiters.append(thread)

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------

    def _advance_stage(self) -> None:
        self._stage_idx += 1
        if self._stage_idx >= self.compiled.n_stages:
            self._finish()
            return
        specs = self.compiled.stage_items[self._stage_idx]
        self._outstanding = len(specs)
        for spec in specs:
            self._pending.append(WorkItem(
                label=spec.label, reads=spec.reads, writes=spec.writes,
                cycles=spec.cycles, query_name=self.query_name,
                on_complete=self._item_done))
        self._wake_waiters()

    def _item_done(self, item: WorkItem) -> None:
        self._outstanding -= 1
        if self._outstanding == 0 and not self._pending:
            self._advance_stage()

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for thread in waiters:
            self.os.wake(thread)

    def _finish(self) -> None:
        self._finished = True
        self.finish_time = self.os.now
        elapsed = self.finish_time - self.start_time
        self.os.tracer.emit(QueryRecord(
            time=self.finish_time, client_id=self.client_id,
            query_name=self.query_name, start_time=self.start_time,
            elapsed=elapsed))
        obs = self.os.obs
        obs.metrics.counter("db.queries").inc()
        obs.metrics.histogram("db.query_seconds").observe(elapsed)
        if obs.enabled:
            obs.spans.add_complete(
                f"query:{self.query_name}", start=self.start_time,
                duration=elapsed, track="sim",
                tid=1000 + self.client_id,
                args={"client": self.client_id,
                      "workers": len(self._workers)})
        self._wake_waiters()
        if self.on_done is not None:
            self.on_done(self)

    def _worker_exited(self, thread: SimThread) -> None:
        self._workers_alive -= 1
        if self._workers_alive == 0:
            # all workers gone: drop this query's intermediates
            self.os.vm.forget(self.compiled.intermediate_pages)
