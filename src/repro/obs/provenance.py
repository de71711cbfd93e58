"""Decision provenance: *why* the controller changed the mask.

The flat :class:`~repro.sim.tracing.TransitionRecord` stream says what
fired; it cannot answer "why did the mechanism take core 9 at t=0.24?".
A :class:`Decision` captures the full causal chain of one
rule-condition-action pass:

* the **rule** half — the monitor sample the strategy reduced to the
  metric (CPU load, HT/IMC bytes, runnable threads, window);
* the **condition** half — the metric against both thresholds, which
  performance state that classified into, and the exact guard formulas
  of the entry and exit transitions that fired;
* the **action** half — allocate/release/none, the mode that picked the
  node, the chosen core, and (for the adaptive mode) the resident-page
  priority snapshot that justified the node choice.

``repro explain`` renders these records; :func:`explain_decision` is the
single formatter so CLI and tests agree on the wording.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field

from ..errors import ReproError
from ..sim.export import read_jsonl
from .metrics import VALUE_BUCKETS, MetricsRegistry, tenant_namespace


@dataclass(frozen=True, slots=True)
class Decision:
    """One controller pipeline pass, with its full causal chain."""

    time: float
    tick: int
    strategy: str
    metric: float
    th_min: float
    th_max: float
    state: str
    entry: str
    entry_guard: str
    exit: str
    exit_guard: str
    action: str | None
    mode: str
    core: int | None
    node: int | None
    cores_before: int
    cores_after: int
    #: monitor-sample values the rule half observed
    sample: dict[str, float] = field(default_factory=dict)
    #: adaptive mode's per-node resident-page counts (None otherwise)
    priorities: tuple[float, ...] | None = None
    #: tenant whose controller took the decision (multi-tenant systems
    #: run one controller per tenant; ``repro explain --tenant`` filters)
    tenant: str = "db"

    @property
    def label(self) -> str:
        """The Fig 7 chain label, e.g. ``t1-Overload-t5``."""
        return f"{self.entry}-{self.state}-{self.exit}"

    def threshold_comparison(self) -> str:
        """The condition half in words, e.g. ``82.30 >= 70.0``."""
        if self.state == "Idle":
            return f"{self.metric:.2f} <= th_min={self.th_min:g}"
        if self.state == "Overload":
            return f"{self.metric:.2f} >= th_max={self.th_max:g}"
        return (f"th_min={self.th_min:g} < {self.metric:.2f} "
                f"< th_max={self.th_max:g}")


class DecisionLog:
    """Append-only store of :class:`Decision` records; the only writer
    of the ``controller.*``/``petrinet.*`` instruments in ``metrics``."""

    enabled = True

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics
        self._decisions: list[Decision] = []
        self._bound: dict[str, tuple] = {}

    def record(self, decision: Decision) -> None:
        """Append one decision; count it into its tenant's instruments."""
        self._decisions.append(decision)
        bound = self._bound.get(decision.tenant)
        if bound is None:
            bound = self._bound[decision.tenant] = self._bind(
                decision.tenant)
        ticks, moved, cores, metric, fired = bound
        ticks.inc()
        if decision.core is not None:  # a starved t5 moves no core
            moved[decision.action].inc()
        cores.set(decision.cores_after)
        metric.observe(decision.metric)
        fired[decision.entry].inc()
        fired[decision.exit].inc()

    def _bind(self, tenant: str) -> tuple:
        """All 13 of ``tenant``'s instruments at once, so the ones that
        stay zero (a transition that never fired) still export."""
        metrics = self._metrics
        controller = tenant_namespace("controller", tenant)
        petrinet = tenant_namespace("petrinet", tenant)
        moved = {"allocate": metrics.counter(f"{controller}.allocations"),
                 "release": metrics.counter(f"{controller}.releases")}
        fired = {f"t{i}": metrics.counter(f"{petrinet}.fired.t{i}")
                 for i in range(8)}
        return (metrics.counter(f"{controller}.ticks"), moved,
                metrics.gauge(f"{controller}.cores_allocated"),
                metrics.histogram(f"{controller}.metric", VALUE_BUCKETS),
                fired)

    def __len__(self) -> int:
        return len(self._decisions)

    def all(self) -> list[Decision]:
        """Every decision in tick order."""
        return list(self._decisions)

    def clear(self) -> None:
        """Drop all decisions (the metrics they wrote stay)."""
        self._decisions.clear()


class NullDecisionLog:
    """No-op decision sink for the disabled fast path."""

    enabled = False

    def record(self, decision: Decision) -> None:
        """Discard the decision."""

    def __len__(self) -> int:
        return 0

    def all(self) -> list[Decision]:
        return []

    def clear(self) -> None:
        """Nothing to drop."""


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fmt_bytes(value: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if value >= scale:
            return f"{value / scale:.1f}{unit}"
    return f"{value:.0f}B"


def explain_decision(decision: Decision) -> str:
    """A human-readable account of one pipeline pass."""
    d = decision
    if d.action is None:
        outcome = "mask unchanged"
    else:
        where = f"core {d.core}" + (
            f" (node {d.node})" if d.node is not None else "")
        outcome = f"{d.action}d {where}"
    lines = [f"tick {d.tick} @ {d.time:.3f}s — {d.label}: {outcome}, "
             f"{d.cores_before} -> {d.cores_after} cores"]
    sample = d.sample
    if sample:
        parts = []
        if "cpu_load" in sample:
            parts.append(f"cpu_load={sample['cpu_load']:.1f}%")
        if "ht_bytes" in sample:
            parts.append(f"ht={_fmt_bytes(sample['ht_bytes'])}")
        if "imc_bytes" in sample:
            parts.append(f"imc={_fmt_bytes(sample['imc_bytes'])}")
        if "ht_imc_ratio" in sample:
            parts.append(f"ht/imc={sample['ht_imc_ratio']:.3f}")
        if "runnable_threads" in sample:
            parts.append(f"runnable={sample['runnable_threads']:.0f}")
        window = sample.get("window")
        suffix = f" over a {window:.3f}s window" if window else ""
        lines.append(f"  rule       monitor sampled "
                     f"{', '.join(parts)}{suffix}")
    lines.append(
        f"  condition  {d.strategy} u={d.metric:.2f}: "
        f"{d.threshold_comparison()} -> {d.state}")
    lines.append(
        f"             entry {d.entry} (guard: {d.entry_guard}), "
        f"exit {d.exit} (guard: {d.exit_guard})")
    if d.action is None:
        lines.append(f"  action     none ({d.exit} keeps the marking; "
                     f"mode {d.mode} not consulted)")
    else:
        detail = f"mode {d.mode} picked node {d.node}"
        if d.priorities is not None:
            counts = ", ".join(f"{v:g}" for v in d.priorities)
            detail += f" (resident pages by node: [{counts}])"
        lines.append(f"  action     {d.action} one core; {detail} "
                     f"-> core {d.core}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def dump_decisions(decisions, path) -> int:
    """Write decisions as JSON lines; returns the count."""
    path = pathlib.Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for decision in decisions:
            handle.write(json.dumps(dataclasses.asdict(decision)) + "\n")
            count += 1
    return count


def load_decisions(path) -> list[Decision]:
    """Read a decisions JSONL file back into typed records."""
    path = pathlib.Path(path)
    decisions = []
    field_names = {f.name for f in dataclasses.fields(Decision)}
    # fields with defaults may be absent (files written before the field
    # existed — e.g. ``tenant`` — still load); the rest are mandatory
    required = {f.name for f in dataclasses.fields(Decision)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    for line_no, payload in read_jsonl(path):
        if not isinstance(payload, dict) or not required <= set(
                payload):
            missing = required - set(payload or ())
            raise ReproError(
                f"{path}:{line_no}: not a decision record "
                f"(missing {sorted(missing)})")
        extra = set(payload) - field_names
        if extra:
            raise ReproError(
                f"{path}:{line_no}: unknown fields {sorted(extra)}")
        if payload.get("priorities") is not None:
            payload["priorities"] = tuple(payload["priorities"])
        decisions.append(Decision(**payload))
    return decisions
