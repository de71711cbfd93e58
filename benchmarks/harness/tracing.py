"""Per-layer ledger for the traced run.

:class:`LayerLedger` wraps public entry points of the library (and
nothing else) while a traced pass runs, and attributes every host second
of the pass to exactly one layer:

* a wrapped call opens a frame; on return its *self time* - its duration
  minus the time of wrapped calls nested inside it - is added to its
  layer, and its whole duration to its parent's child time;
* cells are the outermost frames, and a cell's own self time is the
  ``harness.unattributed`` layer, so the layers' self times sum to the
  cells' wall time exactly;
* a call nested inside a call of the same layer (``run_until_idle`` ->
  ``run``, ``touch_write`` -> ``touch``) is passed straight through, so
  the pair counts once.

Boundary calls (pass, cell, ``Simulator.run``, query submission,
controller pass, snapshot capture and restore, set-up steps) become
:class:`~repro.obs.spans.SpanRecord` spans kept in memory; every span of
a cell carries the cell's id.  The hot calls - ``touch_pages``,
``touch`` and ``touch_write``, ~200k per pass - are not spans: their
count and time accumulate on the enclosing span instead.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable

import repro.db.engine as db_engine
from repro.core.controller import ElasticController
from repro.db.catalog import Catalog
from repro.db.plan import Profiler
from repro.db.volcano import QueryExecution
from repro.experiments import common
from repro.hardware.machine import Machine
from repro.obs.spans import SpanRecord
from repro.opsys.vm import VirtualMemory
from repro.sim.engine import Simulator
from repro.sim.state import SimState

UNATTRIBUTED = "harness.unattributed"


class _Frame:
    __slots__ = ("layer", "start", "child_s", "hot")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        #: hot layer -> [calls, seconds] accumulated on this span
        self.hot: dict[str, list] | None = None


class LayerLedger:
    """Self time, exact work counts and spans per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[SpanRecord] = []
        #: cell id -> layer -> self seconds
        self.per_cell: dict[str, dict[str, float]] = {}
        self._stack: list[_Frame] = []
        self._cell = ""
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # frames

    def _close(self, frame: _Frame, name: str) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        elapsed = end - frame.start
        self.self_s[frame.layer] += elapsed - frame.child_s
        if stack:
            stack[-1].child_s += elapsed
        span_args: dict = {"cell": self._cell}
        if frame.hot:
            for layer, (calls, seconds) in frame.hot.items():
                span_args[f"{layer}.calls"] = calls
                span_args[f"{layer}.s"] = seconds
        self.spans.append(SpanRecord(
            name=name, start=frame.start, duration=elapsed, track="host",
            tid=0, depth=len(stack), args=span_args))

    def run_cell(self, cell_id: str, fn: Callable[[], object]):
        """Run one cell as the outermost frame; returns its result."""
        if self._stack:
            raise RuntimeError("cells must not nest")
        self._cell = cell_id
        before = dict(self.self_s)
        frame = _Frame(UNATTRIBUTED, self.clock())
        self._stack.append(frame)
        try:
            result = fn()
        finally:
            self._close(frame, cell_id)
            self.per_cell[cell_id] = {
                layer: seconds - before.get(layer, 0.0)
                for layer, seconds in self.self_s.items()
                if seconds != before.get(layer, 0.0)}
            self._cell = ""
        return result

    def add_span(self, name: str, start: float, end: float,
                 args: dict) -> None:
        """Record an enclosing span (a pass) without a ledger frame."""
        self.spans.append(SpanRecord(name=name, start=start,
                                     duration=end - start, track="host",
                                     args=dict(args)))

    # ------------------------------------------------------------------
    # wrappers

    def _patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _spanned(self, layer: str, name: str, fn: Callable,
                 count: Callable | None = None) -> Callable:
        """Wrap ``fn`` as a span of ``layer``; ``count(counts, args,
        kwargs, result)`` adds its work counts."""
        ledger = self
        stack = self._stack
        counts = self.counts
        calls = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(layer, ledger.clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                ledger._close(frame, name)
            counts[calls] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _hot(self, layer: str, fn: Callable, count: Callable) -> Callable:
        """Wrap a hot call: no span, count and time go to the parent."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = self.clock
        calls = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(layer, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame.start
                stack.pop()
                self_s[layer] += elapsed - frame.child_s
                if stack:
                    parent = stack[-1]
                    parent.child_s += elapsed
                    if parent.hot is None:
                        parent.hot = {}
                    tally = parent.hot.get(layer)
                    if tally is None:
                        parent.hot[layer] = [1, elapsed]
                    else:
                        tally[0] += 1
                        tally[1] += elapsed
            counts[calls] += 1
            count(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced entry point (idempotent)."""
        if self._patches:
            return
        raw = Simulator.__dict__
        self._patch(Simulator, "run", self._spanned(
            "opsys.scheduler", "sim.run", raw["run"], _count_events))
        self._patch(Simulator, "run_until_idle", self._spanned(
            "opsys.scheduler", "sim.run", raw["run_until_idle"],
            _count_events))
        self._patch(VirtualMemory, "touch_pages", self._hot(
            "opsys.vm", VirtualMemory.__dict__["touch_pages"],
            _count_vm))
        for attr in ("touch", "touch_write"):
            self._patch(Machine, attr, self._hot(
                "hardware.machine", Machine.__dict__[attr],
                _count_machine))
        self._patch(Profiler, "profile", self._spanned(
            "db.plan", "db.plan.profile", Profiler.__dict__["profile"]))
        # the engine calls compile_profile through its module global
        self._patch(db_engine, "compile_profile", self._spanned(
            "db.cost", "db.cost.compile",
            db_engine.__dict__["compile_profile"], _count_compile))
        self._patch(QueryExecution, "start", self._spanned(
            "db.volcano", "db.volcano.start",
            QueryExecution.__dict__["start"], _count_workers))
        self._patch(ElasticController, "run_pipeline_once", self._spanned(
            "core.controller", "controller.pass",
            ElasticController.__dict__["run_pipeline_once"]))
        capture = SimState.__dict__["capture"].__func__
        self._patch(SimState, "capture", classmethod(self._spanned(
            "sim.state", "sim.state.capture", capture, _count_capture)))
        self._patch(SimState, "restore", self._spanned(
            "sim.state", "sim.state.restore", SimState.__dict__["restore"],
            _count_restore))
        # set-up layers; dataset_for and warm_system resolve these
        # through the module globals of repro.experiments.common
        self._patch(common, "generate", self._spanned(
            "workloads.tpch.generate", "tpch.generate",
            common.__dict__["generate"]))
        self._patch(Catalog, "load", self._spanned(
            "db.catalog.load", "catalog.load", Catalog.__dict__["load"]))
        self._patch(common, "build_system", self._spanned(
            "experiments.build", "build_system",
            common.__dict__["build_system"]))

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# work counts read off each wrapped call


def _count_events(counts, args, kwargs, delivered) -> None:
    counts["sim.events"] += delivered


def _count_vm(counts, args, faults) -> None:
    counts["opsys.vm.pages"] += len(args[1])
    counts["opsys.vm.minor_faults"] += faults


def _count_machine(counts, args, result) -> None:
    counts["hardware.machine.pages"] += len(args[3])
    counts["hardware.machine.hits"] += result.hits
    counts["hardware.machine.misses"] += result.misses
    counts["hardware.machine.remote_bytes"] += result.bytes_remote


def _count_compile(counts, args, kwargs, compiled) -> None:
    counts["db.cost.items"] += sum(map(len, compiled.stage_items))


def _count_workers(counts, args, kwargs, _) -> None:
    n_workers = args[1] if len(args) > 1 else kwargs["n_workers"]
    counts["db.volcano.workers"] += n_workers


def _count_capture(counts, args, kwargs, state) -> None:
    counts["sim.state.captures"] += 1
    counts["sim.state.capture_bytes"] += len(state.payload)


def _count_restore(counts, args, kwargs, _) -> None:
    counts["sim.state.restores"] += 1


# ----------------------------------------------------------------------
# the per-layer metrics


def _ratio(numerator: float, denominator: float, scale: float = 1.0
           ) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(ledger: LayerLedger, setup: LayerLedger,
                  clients: dict, pool) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced pass.

    ``setup`` is the ledger of the in-process set-up, ``clients`` the
    pass's client-ledger counts (dispatches and steals are deltas of the
    ``tasks`` and ``stolen_tasks`` counters around each client run), and
    ``pool`` the fan-out's :class:`~repro.runner.pool.PoolStats` or
    ``None``.
    """
    s, c = ledger.self_s, ledger.counts
    pages_vm = c["opsys.vm.pages"]
    pages_hw = c["hardware.machine.pages"]
    touched = c["hardware.machine.hits"] + c["hardware.machine.misses"]
    passes = c["core.controller.calls"]
    metrics = {
        "sim.events": (c["sim.events"], "count"),
        "opsys.scheduler.self_s": (s["opsys.scheduler"], "s"),
        "opsys.scheduler.us_per_event": (
            _ratio(s["opsys.scheduler"], c["sim.events"], 1e6), "us"),
        "opsys.scheduler.dispatches": (clients["dispatches"], "count"),
        "opsys.scheduler.steals": (clients["steals"], "count"),
        "opsys.vm.calls": (c["opsys.vm.calls"], "count"),
        "opsys.vm.pages": (pages_vm, "count"),
        "opsys.vm.minor_faults": (c["opsys.vm.minor_faults"], "count"),
        "opsys.vm.self_s": (s["opsys.vm"], "s"),
        "opsys.vm.ns_per_page": (_ratio(s["opsys.vm"], pages_vm, 1e9),
                                 "ns"),
        "hardware.machine.calls": (c["hardware.machine.calls"], "count"),
        "hardware.machine.pages": (pages_hw, "count"),
        "hardware.machine.l3_hit_ratio": (
            _ratio(c["hardware.machine.hits"], touched), "ratio"),
        "hardware.machine.remote_bytes": (
            c["hardware.machine.remote_bytes"], "B"),
        "hardware.machine.self_s": (s["hardware.machine"], "s"),
        "hardware.machine.ns_per_page": (
            _ratio(s["hardware.machine"], pages_hw, 1e9), "ns"),
        "db.plan.profiles": (c["db.plan.calls"], "count"),
        "db.plan.self_s": (s["db.plan"], "s"),
        "db.cost.compiles": (c["db.cost.calls"], "count"),
        "db.cost.items": (c["db.cost.items"], "count"),
        "db.cost.self_s": (s["db.cost"], "s"),
        "db.volcano.starts": (c["db.volcano.calls"], "count"),
        "db.volcano.workers": (c["db.volcano.workers"], "count"),
        "db.volcano.self_s": (s["db.volcano"], "s"),
        "core.controller.passes": (passes, "count"),
        "core.controller.self_s": (s["core.controller"], "s"),
        "core.controller.us_per_pass": (
            _ratio(s["core.controller"], passes, 1e6), "us"),
        "sim.state.captures": (c["sim.state.captures"], "count"),
        "sim.state.restores": (c["sim.state.restores"], "count"),
        "sim.state.capture_bytes": (c["sim.state.capture_bytes"], "B"),
        "sim.state.self_s": (s["sim.state"], "s"),
        "runner.pool.tasks": (pool.tasks if pool else 0, "count"),
        "runner.pool.ipc_bytes": (
            pool.ipc_bytes_shipped if pool else 0, "B"),
        "runner.pool.busy_s": (
            sum(pool.busy_seconds.values()) if pool else 0.0, "s"),
        "runner.pool.wall_s": (pool.wall_seconds if pool else 0.0, "s"),
        "runner.pool.utilisation": (
            pool.mean_utilisation() if pool else 0.0, "ratio"),
        "runner.shm.bytes": (pool.shm_bytes if pool else 0, "B"),
        "workloads.tpch.generate_s": (
            setup.self_s["workloads.tpch.generate"], "s"),
        "db.catalog.load_s": (setup.self_s["db.catalog.load"], "s"),
        "experiments.build_s": (setup.self_s["experiments.build"], "s"),
        "harness.unattributed_s": (s[UNATTRIBUTED], "s"),
    }
    return metrics
