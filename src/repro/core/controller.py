"""The elastic controller: the rule-condition-action pipeline (paper §III).

One instance governs one tenant (one DBMS cgroup).  Every ``interval``
seconds of simulated time it runs the staged control plane of
:mod:`repro.control`:

1. **Sense** — the :class:`~repro.control.MonitorSensor` samples the
   monitor (mpstat/likwid stand-in);
2. **Decide** — the :class:`~repro.control.ModelPolicy` extracts the
   strategy's metric, deposits it into the PrT model's ``Checks`` place
   and fires transitions until the token returns;
3. **Plan** — the :class:`~repro.control.ModePlanner` turns the fired
   ``t5``/``t4`` action into a concrete
   :class:`~repro.control.CoreDelta` on the node the allocation mode
   names, avoiding cores other tenants hold;
4. **Actuate** — the :class:`~repro.control.LeaseActuator` applies the
   delta through the system's core-lease inventory; the cpuset edit is
   what the OS scheduler sees.  ``dry_run=True`` swaps in a
   :class:`~repro.control.DryRunActuator` (plans recorded, machine
   untouched) and ``cooldown_ticks`` wraps the actuator in a
   :class:`~repro.control.CooldownActuator` (hysteresis after a change).

The controller keeps ticking while database threads are live and parks
itself otherwise (restart with :meth:`kick` when a new workload begins, or
construct with ``keepalive=True`` to tick forever until :meth:`stop`).
Lifecycle is an explicit state machine: ``new -> running -> stopped``.
"""

from __future__ import annotations

from ..config import ControllerConfig, preflight_defects
from ..control.actuators import CooldownActuator, DryRunActuator
from ..control.stages import (Actuator, DecisionPolicy, LeaseActuator,
                              ModelPolicy, ModePlanner, MonitorSensor,
                              Planner, Sensor, single_step)
from ..errors import AllocationError, ModelConfigurationError
from ..obs.metrics import VALUE_BUCKETS
from ..obs.provenance import Decision
from ..opsys.inventory import DEFAULT_TENANT
from ..opsys.system import OperatingSystem
from ..sim.tracing import ControllerTick, TransitionRecord
from .lonc import LoncTracker
from .model import PerformanceModel, TransitionChain
from .modes import AdaptivePriorityMode, AllocationMode
from .monitor import Monitor
from .strategies import TransitionStrategy


class ElasticController:
    """The mechanism of the paper, wired to one tenant of one machine."""

    def __init__(self, os: OperatingSystem, mode: AllocationMode,
                 strategy: TransitionStrategy,
                 config: ControllerConfig | None = None,
                 keepalive: bool = False, verify_model: bool = False,
                 tenant: str = DEFAULT_TENANT, dry_run: bool = False,
                 cooldown_ticks: int = 0,
                 sensor: Sensor | None = None,
                 policy: DecisionPolicy | None = None,
                 planner: Planner | None = None,
                 actuator: Actuator | None = None):
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
        self.lonc = LoncTracker(strategy.th_min, strategy.th_max)
        self.ticks = 0
        self._lifecycle = "new"
        self._tick_scheduled = False
        # --- the four stages (injectable for tests and extensions) ---
        if actuator is None:
            if dry_run:
                actuator = DryRunActuator(os, tenant)
            else:
                actuator = LeaseActuator(os, tenant)
            if cooldown_ticks > 0:
                actuator = CooldownActuator(actuator, cooldown_ticks)
        self.actuator: Actuator = actuator
        if tenant == DEFAULT_TENANT:
            self.monitor = Monitor(os)
        else:
            self.monitor = Monitor(
                os, cpuset=os.inventory.cpuset_of(tenant), tenant=tenant)
        self.sensor: Sensor = sensor or MonitorSensor(self.monitor)
        if policy is None and self.model is not None:
            policy = ModelPolicy(self.model, strategy)
        self._policy = policy
        if planner is None:
            planner = ModePlanner(mode, self.actuator,
                                  os.topology.n_cores)
            planner.set_refresh(self._refresh_priority)
        self.planner: Planner = planner
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

    @property
    def policy(self) -> DecisionPolicy:
        """Stage 2 (absent only while the config is defective)."""
        if self._policy is None:
            raise ModelConfigurationError(
                "no decision policy: " + "; ".join(self._defects))
        return self._policy

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
        ``min_cores > n_total`` ...) raises
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
        self.planner.refresh()
        initial = self.planner.initial_mask(self.config.initial_cores)
        self.actuator.seed(initial)
        self._g_cores.set(self.n_allocated)
        self.sensor.prime()
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
        return self.actuator.n_allocated

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
        chain = self.run_pipeline_once()
        self.os.tracer.emit(ControllerTick(
            time=self.os.now, metric=chain.metric,
            state=chain.state, n_allocated=self.n_allocated))
        watched = (None if self.tenant == DEFAULT_TENANT else self.tenant)
        if self.keepalive or self.os.scheduler.live_threads(watched) > 0:
            self._schedule_tick()

    def run_pipeline_once(self) -> TransitionChain:
        """One full Sense -> Decide -> Plan -> Actuate pass.

        Public for tests and benchmarks.  The stages are wrapped in
        host-clock spans (``controller.sample`` -> ``evaluate`` ->
        ``fire`` -> ``plan`` -> ``apply``) and each pass leaves a
        :class:`~repro.obs.provenance.Decision` in the recorder — the
        record ``repro explain`` renders.
        """
        policy = self.policy
        spans = self.obs.spans
        with spans.span("controller.tick"):
            with spans.span("controller.sample"):
                sample = self.sensor.sense()
            with spans.span("controller.evaluate"):
                metric = policy.metric(sample)
                self.planner.refresh()
            with spans.span("controller.fire"):
                chain = policy.classify(metric)
            self.lonc.record(metric, self.n_allocated)
            cores_before = self.n_allocated
            with spans.span("controller.plan"):
                delta = single_step(self.planner.plan(chain.action))
            with spans.span("controller.apply"):
                applied = self.actuator.apply(delta)
                self._sync_model()
                if applied.allocate:
                    self._c_allocations.inc()
                elif applied.release:
                    self._c_releases.inc()
        self._c_ticks.inc()
        self._h_metric.observe(metric)
        self._g_cores.set(self.n_allocated)
        self._c_fired[chain.entry].inc()
        self._c_fired[chain.exit].inc()
        if self.obs.enabled:
            self._record_decision(sample, chain, applied.first_core,
                                  cores_before)
        self.ticks += 1
        self.os.tracer.emit(TransitionRecord(
            time=self.os.now, label=chain.label, state=chain.state,
            value=metric, cores_after=self.n_allocated))
        return chain

    def _record_decision(self, sample, chain: TransitionChain,
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

    def _refresh_priority(self) -> None:
        if isinstance(self.mode, AdaptivePriorityMode):
            self.mode.queue.update(
                self.os.scheduler.threads,
                fallback=self.os.machine.memory.placement_histogram())

    def _sync_model(self) -> None:
        # the PrT net's Provision token and the actuator's holdings must
        # agree — also after a suppressed (cooldown) or starved (no free
        # core) tick, where the fired transition moved the token but the
        # machine did not change
        assert self.model is not None
        if self.model.nalloc != self.actuator.n_allocated:
            self.model.sync_nalloc(self.actuator.n_allocated)
