"""Database engines: the MonetDB-like Volcano system.

:class:`DatabaseEngine` owns a catalog, a registry of named logical plans,
a profile cache and the submission path that compiles a profile for the
*currently visible* number of cores and launches a
:class:`~repro.db.volcano.QueryExecution`.

:class:`MonetDBLike` is the paper's primary subject: one worker per visible
core per query, placement fully delegated to the OS scheduler, base data
first-touched by a single loader (so it concentrates on one node).
"""

from __future__ import annotations

from collections.abc import Callable

from ..config import EngineConfig
from ..core.feedforward import PredicateAwareSizer
from ..errors import DatabaseError
from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem
from .catalog import Catalog
from .cost import CostModel, compile_profile
from .operators import PlanNode
from .plan import QueryProfile, StageProfile, profile_query
from .volcano import QueryExecution


class DatabaseEngine:
    """Base engine: plan registry, profiling, submission."""

    #: the work source each submitted query runs as
    execution_class = QueryExecution

    def __init__(self, os: OperatingSystem, catalog: Catalog,
                 byte_scale: float = 1.0,
                 config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 name: str = "engine",
                 tenant: str = DEFAULT_TENANT):
        self.os = os
        self.catalog = catalog
        self.byte_scale = byte_scale
        self.config = config or EngineConfig()
        self.cost = cost or CostModel()
        self.name = name
        #: which cgroup the engine's workers live in; the tenant must be
        #: registered on the system (``os.create_tenant``) beforehand —
        #: the default one always is
        self.tenant = tenant
        self.cpuset = os.inventory.cpuset_of(tenant)
        self._plans: dict[str, PlanNode] = {}
        self._profiles: dict[str, QueryProfile] = {}
        self._sizer = PredicateAwareSizer() if self.config.predicate_aware \
            else None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def load(self) -> None:
        """Place the base data according to the engine's policy."""
        if self.config.loader_node is None:
            self.catalog.load(self.os.vm, policy="chunked")
        else:
            self.catalog.load(self.os.vm, policy="single_node",
                              loader_node=self.config.loader_node)

    def register_query(self, name: str, root: PlanNode) -> None:
        """Register a logical plan under ``name``."""
        if name in self._plans:
            raise DatabaseError(f"query {name!r} already registered")
        self._plans[name] = root

    def register_queries(self, plans: dict[str, PlanNode]) -> None:
        """Register several plans at once."""
        for name, root in plans.items():
            self.register_query(name, root)

    def plan(self, name: str) -> PlanNode:
        """The registered logical plan for ``name``."""
        if name not in self._plans:
            raise DatabaseError(f"unknown query {name!r}")
        return self._plans[name]

    def profile(self, name: str) -> QueryProfile:
        """Profile ``name`` (cached; the real execution runs once)."""
        if name not in self._profiles:
            self._profiles[name] = profile_query(
                self.plan(name), self.catalog, name, self.byte_scale,
                self.cost)
        return self._profiles[name]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def worker_count(self) -> int:
        """Workers per query: one per visible core (MonetDB's default).

        Unmanaged engines (co-located applications outside the DB cgroup)
        are not confined by the mask and see every core.
        """
        if self.config.workers_follow_mask and self.config.managed_threads:
            count = max(len(self.cpuset), 1)
        else:
            count = self.os.topology.n_cores
        if self.config.max_workers is not None:
            count = min(count, self.config.max_workers)
        return count

    def pinned_nodes(self, n_workers: int) -> list[int | None] | None:
        """Per-node worker affinity; the base engine leaves it to the OS."""
        return None

    def stage_partitions(self, n_workers: int,
                         ) -> Callable[[StageProfile], int] | None:
        """Items per parallel stage; the base engine splits each stage
        into one item per worker."""
        return None

    def submit(self, name: str, client_id: int = 0,
               on_done: Callable[[QueryExecution], None] | None = None,
               ) -> QueryExecution:
        """Launch one query execution and return its handle."""
        if not self.catalog.loaded:
            raise DatabaseError("load() the engine before submitting")
        profile = self.profile(name)
        n_workers = self.worker_count()
        if self._sizer is not None:
            n_workers = self._sizer.workers_for(profile, n_workers)
        compiled = compile_profile(
            profile, self.catalog, n_workers, self.os.machine.memory,
            self.cost, stage_partitions=self.stage_partitions(n_workers))
        execution = self.execution_class(compiled, self.os,
                                         client_id=client_id,
                                         on_done=on_done)
        execution.start(n_workers, self.pinned_nodes(n_workers),
                        managed=self.config.managed_threads,
                        tenant=self.tenant)
        return execution

    def run_to_completion(self, name: str) -> QueryExecution:
        """Submit one query and drive the simulation until it finishes."""
        execution = self.submit(name)
        self.os.run_until_idle()
        if not execution.finished:
            raise DatabaseError(f"query {name!r} did not finish")
        return execution


class MonetDBLike(DatabaseEngine):
    """The paper's OS-scheduled Volcano engine (MonetDB v11.25 role)."""

    def __init__(self, os: OperatingSystem, catalog: Catalog,
                 byte_scale: float = 1.0,
                 config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 tenant: str = DEFAULT_TENANT):
        super().__init__(os, catalog, byte_scale,
                         config, cost, name="monetdb", tenant=tenant)
