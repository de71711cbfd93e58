"""Controller-health analyzers: is the mechanism converging on LONC?

The paper judges the elastic mechanism by how *fast* and how *stably*
it settles on the lowest number of cores that sustains the workload.
These analyzers reduce the decision-provenance stream to exactly those
judgements, one :class:`TenantHealth` per controller:

* **convergence time** — sim seconds from the tenant's first decision
  until the controller completes :data:`STABLE_STREAK` consecutive Stable
  passes (the LONC criterion); leaving Stable afterwards counts a
  *divergence* and restarts the clock;
* **oscillation score** — direction flips (allocate -> release or back)
  among the last :data:`OSC_WINDOW` acting decisions, normalised to [0, 1];
  a controller ping-ponging cores scores high even if each step is
  locally justified;
* **flapping score** — Petri-net state changes per sliding window of
  passes, the mode-change rate;
* **allocation lag** — ticks from a threshold crossing (the pass that
  left Stable) until a core change is actually applied (``core`` is not
  ``None``); starvation (no free core) stretches this.

Everything here is *pure replay*: :func:`analyze_decisions` computes
the numbers post-hoc from a decisions JSONL file, and ``repro stats``
prints them per tenant for a ``run --telemetry`` directory.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

#: Petri-net performance state that satisfies the LONC criterion
STABLE = "Stable"
#: consecutive Stable passes that count as converged-on-LONC
STABLE_STREAK = 3
#: sliding-window length (decisions) for oscillation/flapping
OSC_WINDOW = 20

_DIRECTIONS = {"allocate": 1, "release": -1}


class TenantHealth:
    """Rolling health state of one tenant's controller."""

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.decisions = 0
        self.first_time: float | None = None
        # convergence
        self._streak = 0
        self.converged = False
        self.convergence_time: float | None = None
        self.divergences = 0
        # oscillation / flapping windows
        self._directions: deque[int] = deque(maxlen=OSC_WINDOW)
        self._states: deque[str] = deque(maxlen=OSC_WINDOW)
        # allocation lag: tick that left Stable, pending application
        self._episode_tick: int | None = None
        self.last_lag: int | None = None
        self.lags: list[int] = []
        self.cores: int | None = None
        #: the most recent acting decision (its provenance link)
        self.last_action: dict | None = None

    def observe(self, decision) -> None:
        """Fold one controller pass into the rolling state."""
        self.decisions += 1
        if self.first_time is None:
            self.first_time = decision.time
        self.cores = decision.cores_after
        self._states.append(decision.state)
        direction = _DIRECTIONS.get(decision.action or "")
        if direction is not None:
            self._directions.append(direction)
            self.last_action = {
                "time": decision.time, "tick": decision.tick,
                "action": decision.action, "core": decision.core,
                "state": decision.state,
                "cores_after": decision.cores_after,
            }
        # convergence to LONC: a streak of Stable passes
        if decision.state == STABLE:
            self._streak += 1
            if not self.converged and \
                    self._streak >= STABLE_STREAK:
                self.converged = True
                self.convergence_time = decision.time - self.first_time
        else:
            if self.converged:
                self.divergences += 1
                self.converged = False
            self._streak = 0
        # allocation lag: threshold crossing -> applied core change
        if decision.state == STABLE:
            self._episode_tick = None
        elif self._episode_tick is None:
            self._episode_tick = decision.tick
        if decision.core is not None and self._episode_tick is not None:
            lag = decision.tick - self._episode_tick + 1
            self.last_lag = lag
            self.lags.append(lag)
            self._episode_tick = None

    @property
    def oscillation(self) -> float:
        """Direction-flip rate over the acting-decision window [0, 1]."""
        directions = self._directions
        if len(directions) < 2:
            return 0.0
        flips = sum(1 for a, b in zip(directions, list(directions)[1:])
                    if a != b)
        return flips / (len(directions) - 1)

    @property
    def flapping(self) -> float:
        """State-change rate over the sliding window [0, 1]."""
        states = self._states
        if len(states) < 2:
            return 0.0
        changes = sum(1 for a, b in zip(states, list(states)[1:])
                      if a != b)
        return changes / (len(states) - 1)

    @property
    def mean_lag(self) -> float | None:
        """Mean allocation lag in ticks (``None`` before any)."""
        if not self.lags:
            return None
        return sum(self.lags) / len(self.lags)

    def snapshot(self) -> dict:
        """JSON-ready summary."""
        return {
            "tenant": self.tenant,
            "decisions": self.decisions,
            "converged": self.converged,
            "convergence_time": self.convergence_time,
            "divergences": self.divergences,
            "oscillation": self.oscillation,
            "flapping": self.flapping,
            "last_lag": self.last_lag,
            "mean_lag": self.mean_lag,
            "cores": self.cores,
            "last_action": self.last_action,
        }


class HealthSuite:
    """Per-tenant :class:`TenantHealth`, created on first decision."""

    def __init__(self) -> None:
        self.tenants: dict[str, TenantHealth] = {}

    def observe(self, decision) -> TenantHealth:
        """Route one decision; returns the tenant's health record."""
        tenant = self.tenants.get(decision.tenant)
        if tenant is None:
            tenant = TenantHealth(decision.tenant)
            self.tenants[decision.tenant] = tenant
        tenant.observe(decision)
        return tenant

    def snapshot(self) -> dict:
        """JSON-ready per-tenant summaries."""
        return {name: tenant.snapshot()
                for name, tenant in sorted(self.tenants.items())}


def analyze_decisions(decisions: Iterable) -> HealthSuite:
    """Post-hoc replay of a decision stream into per-tenant health.

    Feed it ``load_decisions(path)``; ``repro stats`` does exactly
    that for a telemetry directory.
    """
    suite = HealthSuite()
    for decision in decisions:
        suite.observe(decision)
    return suite

