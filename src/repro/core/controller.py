"""The elastic controller: the rule-condition-action loop (paper §III).

One instance governs one tenant (one DBMS cgroup).  Every ``interval``
seconds of simulated time it runs one pass:

1. **sample** — the :class:`~repro.core.monitor.Monitor` (mpstat/likwid
   stand-in) observes the window since the previous pass;
2. **decide** — the strategy reduces the sample to its metric, which is
   deposited into the PrT model's ``Checks`` place; transitions fire
   until the token returns;
3. **plan** — the fired ``t5``/``t4`` action names at most one core
   (the paper moves one core per tick), picked by the allocation mode
   among the cores neither this tenant nor any other one holds;
4. **apply** — that core is leased or returned through the system's
   :class:`~repro.opsys.inventory.CoreInventory`, which edits the
   tenant's cpuset: the mask the OS scheduler sees.

The controller keeps ticking while database threads are live and parks
itself otherwise (restart with :meth:`kick` when a new workload begins, or
construct with ``keepalive=True`` to tick forever until :meth:`stop`).
Lifecycle is an explicit state machine: ``new -> running -> stopped``.
"""

from __future__ import annotations

from ..config import ControllerConfig, preflight_defects
from ..errors import AllocationError, ModelConfigurationError, ReproError
from ..obs.metrics import VALUE_BUCKETS
from ..obs.provenance import Decision
from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem
from ..sim.tracing import CoreAllocation, TransitionRecord
from .lonc import LoncReport, lonc_report
from .model import PerformanceModel, TransitionChain
from .modes import AdaptivePriorityMode, AllocationMode
from .monitor import Monitor, MonitorSample
from .strategies import TransitionStrategy


class ElasticController:
    """The mechanism of the paper, wired to one tenant of one machine."""

    def __init__(self, os: OperatingSystem, mode: AllocationMode,
                 strategy: TransitionStrategy,
                 config: ControllerConfig | None = None,
                 keepalive: bool = False, verify_model: bool = False,
                 tenant: str = DEFAULT_TENANT):
        self.os = os
        self.mode = mode
        self.strategy = strategy
        self.config = config or ControllerConfig()
        self.tenant = tenant
        self.verify_model = verify_model
        # a contradictory configuration is held, not raised: start()
        # reports every defect at once as a ModelConfigurationError
        self._defects = preflight_defects(
            strategy.th_min, strategy.th_max, self.config.min_cores,
            self.config.initial_cores, os.topology.n_cores)
        floor = os.inventory.min_cores_of(tenant)
        if self.config.min_cores < floor:
            # the model would release down to min_cores, and the
            # inventory would refuse that release at its floor mid-run
            self._defects.append(
                f"min_cores={self.config.min_cores} below tenant "
                f"{tenant!r}'s lease floor min_cores={floor}")
        self.model: PerformanceModel | None
        if self._defects:
            self.model = None
        else:
            self.model = PerformanceModel(
                th_min=strategy.th_min, th_max=strategy.th_max,
                n_total=os.topology.n_cores,
                n_min=self.config.min_cores,
                initial_cores=self.config.initial_cores)
        self.keepalive = keepalive
        self.ticks = 0
        self._lifecycle = "new"
        self._tick_scheduled = False
        self.inventory = os.inventory
        self.cpuset = os.inventory.cpuset_of(tenant)
        self.monitor = Monitor(os, tenant)
        # telemetry: instruments bound once; all no-ops when the
        # system's recorder is the null one.  The default tenant keeps
        # the legacy names; other tenants get their own namespace.
        self.obs = os.obs
        metrics = self.obs.metrics
        infix = "" if tenant == DEFAULT_TENANT else f"{tenant}."
        self._c_ticks = metrics.counter(f"controller.{infix}ticks")
        self._c_allocations = metrics.counter(
            f"controller.{infix}allocations")
        self._c_releases = metrics.counter(f"controller.{infix}releases")
        self._g_cores = metrics.gauge(
            f"controller.{infix}cores_allocated")
        self._h_metric = metrics.histogram(f"controller.{infix}metric",
                                           VALUE_BUCKETS)
        self._c_fired = {
            name: metrics.counter(f"petrinet.{infix}fired.{name}")
            for name in ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7")}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def lifecycle(self) -> str:
        """``"new"``, ``"running"`` or ``"stopped"``."""
        return self._lifecycle

    def start(self) -> None:
        """Seed the initial leases and schedule the first tick.

        Pre-flight: a contradictory configuration (inverted thresholds,
        ``min_cores > n_total``, ``min_cores`` below the tenant's lease
        floor ...) raises
        :class:`~repro.errors.ModelConfigurationError`; with
        ``verify_model=True`` the full static analysis of
        :func:`repro.verify.verify_performance_model` runs first and any
        finding raises a :class:`~repro.errors.VerificationError`.
        """
        if self._lifecycle == "running":
            raise AllocationError("controller already started")
        if self._lifecycle == "stopped":
            raise AllocationError(
                "controller already stopped; construct a new one")
        if self._defects:
            raise ModelConfigurationError(
                "refusing to start: " + "; ".join(self._defects))
        if self.verify_model:
            # local import: repro.verify imports from repro.core
            from ..verify import raise_on_findings, verify_performance_model
            raise_on_findings(verify_performance_model(self.model))
        self._lifecycle = "running"
        self._refresh_priority()
        # seed around the cores other tenants already hold
        taken = set(self.inventory.unavailable_to(self.tenant))
        initial: list[int] = []
        for _ in range(self.config.initial_cores):
            core = self.mode.next_allocation(frozenset(taken))
            taken.add(core)
            initial.append(core)
        self.inventory.seed(self.tenant, initial)
        for core in initial:
            self._trace(core, allocated=True)
        self._g_cores.set(self.n_allocated)
        self.monitor.prime()
        self._schedule_tick()

    def stop(self) -> None:
        """Stop ticking permanently (idempotent)."""
        self._lifecycle = "stopped"

    def kick(self) -> None:
        """Re-arm the tick loop after the controller parked itself.

        A no-op once stopped; calling it before :meth:`start` is a
        programming error and raises.
        """
        if self._lifecycle == "new":
            raise AllocationError("cannot kick a controller before start()")
        if self._lifecycle == "running":
            self._schedule_tick()

    @property
    def n_allocated(self) -> int:
        """Cores this tenant currently holds."""
        return len(self.cpuset)

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------

    def _schedule_tick(self) -> None:
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self.os.sim.schedule(self.config.interval, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self._lifecycle != "running":
            return
        self.run_pipeline_once()
        if self.keepalive or self.os.scheduler.live_threads(self.tenant):
            self._schedule_tick()

    def run_pipeline_once(self) -> TransitionChain:
        """One full sample -> decide -> plan -> apply pass.

        Public for tests and benchmarks.  The steps are wrapped in
        host-clock spans (``controller.sample`` -> ``evaluate`` ->
        ``fire`` -> ``plan`` -> ``apply``) and each pass leaves a
        :class:`~repro.obs.provenance.Decision` in the recorder — the
        record ``repro explain`` renders.
        """
        model = self.model
        if model is None:
            raise ModelConfigurationError(
                "no model: " + "; ".join(self._defects))
        spans = self.obs.spans
        with spans.span("controller.tick"):
            with spans.span("controller.sample"):
                sample = self.monitor.sample()
            with spans.span("controller.evaluate"):
                metric = self.strategy.metric(sample)
                self._refresh_priority()
            with spans.span("controller.fire"):
                chain = model.run_cycle(metric)
            cores_before = self.n_allocated
            with spans.span("controller.plan"):
                core = self._plan(chain.action)
            with spans.span("controller.apply"):
                if core is not None:
                    self._apply(chain.action == "allocate", core)
                self._sync_model()
        self._c_ticks.inc()
        self._h_metric.observe(metric)
        self._g_cores.set(self.n_allocated)
        self._c_fired[chain.entry].inc()
        self._c_fired[chain.exit].inc()
        if self.obs.enabled:
            self._record_decision(sample, chain, core, cores_before)
        self.ticks += 1
        self.os.tracer.emit(TransitionRecord(
            time=self.os.now, label=chain.label, state=chain.state,
            value=metric, cores_after=self.n_allocated,
            tenant=self.tenant))
        return chain

    def lonc_report(self) -> LoncReport:
        """The LONC summary of this tenant's passes, derived from its
        :class:`TransitionRecord` stream in the system's tracer.  Raises
        :class:`~repro.errors.ReproError` when that trace lost records
        (muted, or cleared mid-run) rather than summarise part of it."""
        records = [r for r in self.os.tracer.iter_of(TransitionRecord)
                   if r.tenant == self.tenant]
        if len(records) != self.ticks:
            raise ReproError(
                f"tenant {self.tenant!r}: the trace holds {len(records)} "
                f"TransitionRecords for {self.ticks} controller ticks; "
                f"no LONC report from a muted or cleared trace")
        return lonc_report(records, self.config.initial_cores)

    def _record_decision(self, sample: MonitorSample,
                         chain: TransitionChain,
                         core: int | None, cores_before: int) -> None:
        """Capture the full causal chain of one pass.

        Runs only when the recorder is enabled; the :class:`Decision`
        lands in the provenance log behind ``decisions.jsonl``.
        """
        priorities = None
        if isinstance(self.mode, AdaptivePriorityMode):
            priorities = tuple(self.mode.queue.counts())
        node = (self.os.topology.node_of_core(core)
                if core is not None else None)
        assert self.model is not None
        decision = Decision(
            time=self.os.now, tick=self.ticks,
            strategy=self.strategy.name, metric=chain.metric,
            th_min=self.strategy.th_min, th_max=self.strategy.th_max,
            state=chain.state, entry=chain.entry,
            entry_guard=self.model.guard_text(chain.entry),
            exit=chain.exit,
            exit_guard=self.model.guard_text(chain.exit)
            or "none (always enabled)",
            action=chain.action, mode=self.mode.name, core=core,
            node=node, cores_before=cores_before,
            cores_after=self.n_allocated,
            sample={
                "cpu_load": sample.cpu_load,
                "ht_bytes": sample.ht_bytes,
                "imc_bytes": sample.imc_bytes,
                "ht_imc_ratio": sample.ht_imc_ratio,
                "runnable_threads": float(sample.runnable_threads),
                "window": sample.window,
            },
            priorities=priorities,
            tenant=self.tenant)
        self.obs.decisions.record(decision)

    # ------------------------------------------------------------------
    # model/placement upkeep
    # ------------------------------------------------------------------

    def _plan(self, action: str | None) -> int | None:
        """The core an ``"allocate"`` / ``"release"`` action moves.

        An allocation avoids this tenant's own cores and every core
        another tenant holds.  When that blocks the whole machine the
        tick is starved and moves nothing: the model's ``t5`` guard
        only knows this tenant's count, so under contention this is a
        normal outcome, and :meth:`_sync_model` puts the model back.
        """
        if action == "allocate":
            blocked = (self.cpuset.allowed()
                       | self.inventory.unavailable_to(self.tenant))
            if len(blocked) >= self.os.topology.n_cores:
                return None
            return self.mode.next_allocation(blocked)
        if action == "release":
            return self.mode.next_release(self.cpuset.allowed())
        return None

    def _apply(self, allocate: bool, core: int) -> None:
        """Lease or return ``core``; a refused lease changes nothing."""
        if allocate:
            self.inventory.acquire(self.tenant, core)
            self._c_allocations.inc()
        else:
            # the model's release guard keeps the tenant above its
            # min_cores, which start() refuses below the inventory's
            # floor, so the inventory never refuses this
            self.inventory.release(self.tenant, core)
            self._c_releases.inc()
        self._trace(core, allocated=allocate)

    def _trace(self, core: int, allocated: bool) -> None:
        self.os.tracer.emit(CoreAllocation(
            time=self.os.now, core_id=core,
            node_id=self.os.topology.node_of_core(core),
            allocated=allocated, n_allocated=len(self.cpuset),
            tenant=self.tenant))

    def _refresh_priority(self) -> None:
        if isinstance(self.mode, AdaptivePriorityMode):
            self.mode.queue.update(
                self.os.scheduler.threads,
                fallback=self.os.machine.memory.placement_histogram())

    def _sync_model(self) -> None:
        # the PrT net's Provision token and the tenant's leases must
        # agree — also after a starved tick (no free core), where the
        # fired transition moved the token but the machine did not change
        assert self.model is not None
        if self.model.nalloc != self.n_allocated:
            self.model.sync_nalloc(self.n_allocated)
