"""The paper's performance-state PrT model (§III-B, Figs 8-11).

Places
    ``Checks`` (current resource-usage token ``u``), ``Provision`` (the
    allocated-core count ``na``), and the three performance states
    ``Idle``, ``Stable``, ``Overload``.

Transitions
    ========  ===========================  ==========================
    name      guard                        effect
    ========  ===========================  ==========================
    ``t0``    ``u <= thmin``               Checks+Provision -> Idle
    ``t1``    ``u >= thmax``               Checks+Provision -> Overload
    ``t2``    ``thmin < u < thmax``        Checks -> Stable
    ``t3``    (none)                       Stable -> Checks
    ``t4``    ``na > nmin``                Idle -> Provision(na-1)+Checks
    ``t7``    ``na == nmin``               Idle -> Provision(na)+Checks
    ``t5``    ``na < ntotal``              Overload -> Provision(na+1)+Checks
    ``t6``    ``na == ntotal``             Overload -> Provision(na)+Checks
    ========  ===========================  ==========================

One monitoring tick = one :meth:`PerformanceModel.run_cycle`: deposit the
fresh ``u`` token into ``Checks``, fire until the token returns.  The fired
pair is reported as the paper's Fig 7 labels (``t1-Overload-t5`` ...), and
``t5``/``t4`` carry the allocate/release action the controller executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..errors import PetriNetError
from .petrinet import Arc, OutputArc, PetriNet, Transition

#: performance-state place reached by each entry transition
_STATE_OF = {"t0": "Idle", "t1": "Overload", "t2": "Stable"}

#: action carried by each exit transition
_ACTION_OF = {"t4": "release", "t5": "allocate"}


# Guards and output expressions are module-level functions (bound to
# the thresholds with ``functools.partial``), not lambdas, so a model
# pickles: a controller's model sits inside every captured simulation.

def _u_at_most(th_min, b):
    return b["u"] <= th_min


def _u_at_least(th_max, b):
    return b["u"] >= th_max


def _u_between(th_min, th_max, b):
    return th_min < b["u"] < th_max


def _na_above(n_min, b):
    return b["na"] > n_min


def _na_below(n_total, b):
    return b["na"] < n_total


def _na_equals(bound, b):
    return b["na"] == bound


def _u(b):
    return (b["u"],)


def _na(b):
    return (b["na"],)


def _u_na(b):
    return (b["u"], b["na"])


def _na_minus_one(b):
    return (b["na"] - 1,)


def _na_plus_one(b):
    return (b["na"] + 1,)


@dataclass(frozen=True)
class TransitionChain:
    """One fired entry/exit pair, e.g. ``t1-Overload-t5``."""

    entry: str
    state: str
    exit: str
    metric: float
    nalloc_after: int

    @property
    def label(self) -> str:
        """The Fig 7 display label."""
        return f"{self.entry}-{self.state}-{self.exit}"

    @property
    def action(self) -> str | None:
        """``"allocate"``, ``"release"`` or ``None``."""
        return _ACTION_OF.get(self.exit)


class PerformanceModel:
    """The concrete 5-place / 8-transition net, parameterised by thresholds.

    Parameters
    ----------
    th_min / th_max:
        The strategy's thresholds (CPU-load percentages or HT/IMC ratios).
    n_total:
        Hardware core count (``ntotal``); bounds ``t5``.
    n_min:
        Lower bound enforced by ``t7`` (paper: 1).
    initial_cores:
        Initial ``Provision`` marking (paper: 1).
    """

    def __init__(self, th_min: float, th_max: float, n_total: int,
                 n_min: int = 1, initial_cores: int = 1):
        if th_min >= th_max:
            raise PetriNetError("th_min must be below th_max")
        if not 1 <= n_min <= initial_cores <= n_total:
            raise PetriNetError(
                "need 1 <= n_min <= initial_cores <= n_total")
        self.th_min = th_min
        self.th_max = th_max
        self.n_total = n_total
        self.n_min = n_min
        self.net = self._build(initial_cores)

    # ------------------------------------------------------------------

    def _build(self, initial_cores: int) -> PetriNet:
        net = PetriNet()
        for place in ("Checks", "Idle", "Stable", "Overload", "Provision"):
            net.add_place(place)
        th_min, th_max = self.th_min, self.th_max
        n_total, n_min = self.n_total, self.n_min

        # entry transitions: classify the fresh u token
        net.add_transition(Transition(
            "t0", guard=partial(_u_at_most, th_min),
            guard_text=f"u <= {th_min}",
            inputs=[Arc("Checks", ("u",), "u"),
                    Arc("Provision", ("na",), "na")],
            outputs=[OutputArc("Idle", _u_na, "na")]))
        net.add_transition(Transition(
            "t1", guard=partial(_u_at_least, th_max),
            guard_text=f"u >= {th_max}",
            inputs=[Arc("Checks", ("u",), "u"),
                    Arc("Provision", ("na",), "na")],
            outputs=[OutputArc("Overload", _u_na, "na")]))
        net.add_transition(Transition(
            "t2", guard=partial(_u_between, th_min, th_max),
            guard_text=f"{th_min} < u < {th_max}",
            inputs=[Arc("Checks", ("u",), "u")],
            outputs=[OutputArc("Stable", _u, "u")]))

        # exit transitions: act and return the token to Checks
        net.add_transition(Transition(
            "t4", guard=partial(_na_above, n_min),
            guard_text=f"nalloc > {n_min}",
            inputs=[Arc("Idle", ("u", "na"), "na")],
            outputs=[OutputArc("Provision", _na_minus_one, "na"),
                     OutputArc("Checks", _u, "u")]))
        net.add_transition(Transition(
            "t7", guard=partial(_na_equals, n_min),
            guard_text=f"nalloc == {n_min}",
            inputs=[Arc("Idle", ("u", "na"), "na")],
            outputs=[OutputArc("Provision", _na, "na"),
                     OutputArc("Checks", _u, "u")]))
        net.add_transition(Transition(
            "t5", guard=partial(_na_below, n_total),
            guard_text=f"nalloc < {n_total}",
            inputs=[Arc("Overload", ("u", "na"), "na")],
            outputs=[OutputArc("Provision", _na_plus_one, "na"),
                     OutputArc("Checks", _u, "u")]))
        net.add_transition(Transition(
            "t6", guard=partial(_na_equals, n_total),
            guard_text=f"nalloc == {n_total}",
            inputs=[Arc("Overload", ("u", "na"), "na")],
            outputs=[OutputArc("Provision", _na, "na"),
                     OutputArc("Checks", _u, "u")]))
        net.add_transition(Transition(
            "t3", inputs=[Arc("Stable", ("u",), "u")],
            outputs=[OutputArc("Checks", _u, "u")]))

        net.set_token("Provision", (initial_cores,))
        return net

    # ------------------------------------------------------------------

    @property
    def nalloc(self) -> int:
        """Current allocated-core count held by ``Provision``."""
        token = self.net.place("Provision").peek()
        if token is None:
            raise PetriNetError("Provision lost its token")
        return int(token[0])

    def guard_text(self, name: str) -> str:
        """The guard formula of transition ``name`` (``"u >= 70.0"``...),
        as instantiated with this model's thresholds and bounds.  Empty
        for the unguarded ``t3``.  Decision provenance records carry
        these so ``repro explain`` can show the exact condition that
        held."""
        return self.net.transition(name).guard_text

    def state_of(self, metric: float) -> str:
        """Which performance state a metric value classifies into."""
        if metric <= self.th_min:
            return "Idle"
        if metric >= self.th_max:
            return "Overload"
        return "Stable"

    def run_cycle(self, metric: float) -> TransitionChain:
        """One monitoring tick: deposit ``metric``, fire to completion."""
        self.net.set_token("Checks", (metric,))
        fired: list[str] = []
        while not fired or len(self.net.place("Checks")) == 0:
            name = self.net.step()
            if name is None:
                raise PetriNetError(
                    f"model deadlocked after firing {fired}")
            fired.append(name)
        if len(fired) != 2:
            raise PetriNetError(f"unexpected firing chain {fired}")
        entry, exit_ = fired
        return TransitionChain(
            entry=entry, state=_STATE_OF[entry], exit=exit_,
            metric=metric, nalloc_after=self.nalloc)

    def sync_nalloc(self, nalloc: int) -> None:
        """Force the ``Provision`` marking (when the controller could not
        apply an action, e.g. no free core on the preferred node)."""
        if not self.n_min <= nalloc <= self.n_total:
            raise PetriNetError(f"nalloc {nalloc} out of range")
        self.net.set_token("Provision", (nalloc,))
