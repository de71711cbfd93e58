"""Numeric net structure: token-count Pre/Post matrices and basic checks.

:meth:`PetriNet.incidence` renders the *symbolic* matrices of the paper's
Figs 8-11 (arc labels like ``"u"`` / ``"na"``).  The analyses need the
*numeric* token-count view: ``Pre[p, t]`` / ``Post[p, t]`` count how many
tokens transition ``t`` consumes from / produces into place ``p``, and
``C = Post - Pre`` is the incidence matrix over which P/T-invariants are
computed.  Every arc of a PrT net moves exactly one (valued) token, so
the counts are the number of arcs.

Structural checks here need no guard reasoning:

* transitions with no input or no output arcs (sources/sinks break any
  conservation argument);
* transitions that are *structurally dead* under the cycle-entry marking
  (some input place can never be marked, so the guard never even gets
  evaluated);
* places no transition ever marks and the entry marking leaves empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.petrinet import PetriNet
from .report import Finding


@dataclass(frozen=True)
class NetStructure:
    """The token-count structure of a net.

    ``pre``/``post`` are ``(n_places, n_transitions)`` integer arrays in
    the order of ``places`` / ``transitions``.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: np.ndarray
    post: np.ndarray

    @property
    def incidence(self) -> np.ndarray:
        """``C = Post - Pre``: net token flow per (place, transition)."""
        return self.post - self.pre

    @classmethod
    def from_net(cls, net: PetriNet) -> NetStructure:
        """Count arcs of ``net`` into numeric matrices."""
        places = tuple(net.place_names())
        transitions = tuple(net.transition_names())
        pre = np.zeros((len(places), len(transitions)), dtype=np.int64)
        post = np.zeros_like(pre)
        for j, tname in enumerate(transitions):
            transition = net.transition(tname)
            for arc in transition.inputs:
                pre[places.index(arc.place), j] += 1
            for arc in transition.outputs:
                post[places.index(arc.place), j] += 1
        return cls(places=places, transitions=transitions,
                   pre=pre, post=post)


def markable_places(structure: NetStructure,
                    entry_marking: set[str]) -> set[str]:
    """Fixpoint of places that can ever hold a token.

    Starts from the places marked at cycle entry and adds the outputs of
    every transition whose inputs are all markable, ignoring guards (an
    over-approximation: if a place is not markable here, it is not
    markable under any guard semantics either).
    """
    markable = {p for p in entry_marking if p in structure.places}
    changed = True
    while changed:
        changed = False
        for j, _ in enumerate(structure.transitions):
            ins = {structure.places[i]
                   for i in np.nonzero(structure.pre[:, j])[0]}
            if ins <= markable:
                outs = {structure.places[i]
                        for i in np.nonzero(structure.post[:, j])[0]}
                if not outs <= markable:
                    markable |= outs
                    changed = True
    return markable


def check_structure(structure: NetStructure,
                    entry_marking: set[str]) -> list[Finding]:
    """Run every structural check; return the findings."""
    findings: list[Finding] = []
    for j, tname in enumerate(structure.transitions):
        if not structure.pre[:, j].any():
            findings.append(Finding(
                "structure", "transition has no input arc: it could fire "
                "unboundedly and creates tokens from nothing",
                location=tname))
        if not structure.post[:, j].any():
            findings.append(Finding(
                "structure", "transition has no output arc: every firing "
                "destroys a token", location=tname))

    markable = markable_places(structure, entry_marking)
    for j, tname in enumerate(structure.transitions):
        ins = {structure.places[i]
               for i in np.nonzero(structure.pre[:, j])[0]}
        missing = sorted(ins - markable)
        if missing:
            findings.append(Finding(
                "structure",
                f"transition is structurally dead: input place(s) "
                f"{missing} can never be marked from the entry marking "
                f"{sorted(entry_marking)}", location=tname))
    for place in structure.places:
        if place not in markable:
            findings.append(Finding(
                "structure",
                f"place can never hold a token from the entry marking "
                f"{sorted(entry_marking)}", location=place,
                severity="warning"))
    return findings
