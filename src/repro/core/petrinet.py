"""Generic Predicate/Transition (PrT) nets with valued tokens.

The paper models database performance states as a PrT net (§III): places
hold *valued* tokens (a CPU-load percentage, an allocated-core count),
transitions carry first-order guards over the variables bound by their
input arcs, and the net structure is summarised by ``Pre``/``Post``
incidence matrices (Fig 8-11).

This module implements that formalism directly:

* a :class:`Place` holds an ordered list of tokens (tuples of numbers);
* an input :class:`Arc` consumes one token and binds its components to
  variable names; an output arc produces a token computed from the binding;
* a :class:`Transition` is enabled when every input place has a token and
  its guard holds over the binding;
* :meth:`PetriNet.incidence` renders the symbolic ``Pre``, ``Post`` and
  ``A^T = Post - Pre`` matrices, so tests can compare them against the
  paper's figures.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..errors import PetriNetError

Token = tuple[float, ...]
Binding = dict[str, float]


class Place:
    """A named place holding an ordered multiset of valued tokens."""

    def __init__(self, name: str):
        if not name:
            raise PetriNetError("places need a name")
        self.name = name
        self.tokens: list[Token] = []

    def put(self, token: Sequence[float]) -> None:
        """Deposit a token."""
        self.tokens.append(tuple(float(v) for v in token))

    def take(self) -> Token:
        """Remove and return the oldest token."""
        if not self.tokens:
            raise PetriNetError(f"place {self.name!r} is empty")
        return self.tokens.pop(0)

    def peek(self) -> Token | None:
        """The oldest token without removing it, or ``None``."""
        return self.tokens[0] if self.tokens else None

    def clear(self) -> None:
        """Drop all tokens."""
        self.tokens.clear()

    def __len__(self) -> int:
        return len(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Place {self.name} tokens={self.tokens}>"


class Arc:
    """An input arc: consumes one token, binding components to variables.

    ``variables`` names the token components in order; the same names are
    used in guard formulas and output expressions.  The symbolic ``label``
    (e.g. ``"u"`` or ``"na"``) is what appears in the incidence matrices.
    """

    def __init__(self, place: str, variables: Sequence[str],
                 label: str | None = None):
        if not variables:
            raise PetriNetError("arcs must bind at least one variable")
        self.place = place
        self.variables = tuple(variables)
        self.label = label if label is not None else ",".join(variables)


class OutputArc:
    """An output arc: produces a token from the binding."""

    def __init__(self, place: str,
                 produce: Callable[[Binding], Sequence[float]],
                 label: str = ""):
        self.place = place
        self.produce = produce
        self.label = label


class Transition:
    """A guarded transition between places."""

    def __init__(self, name: str,
                 guard: Callable[[Binding], bool] | None = None,
                 inputs: Sequence[Arc] = (),
                 outputs: Sequence[OutputArc] = (),
                 guard_text: str = ""):
        self.name = name
        self.guard = guard
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.guard_text = guard_text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transition {self.name} [{self.guard_text}]>"


class PetriNet:
    """A PrT net instance: structure plus current marking."""

    def __init__(self) -> None:
        self._places: dict[str, Place] = {}
        self._transitions: dict[str, Transition] = {}
        self._order: list[str] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_place(self, name: str) -> Place:
        """Create (or return the existing) place ``name``."""
        if name not in self._places:
            self._places[name] = Place(name)
        return self._places[name]

    def add_transition(self, transition: Transition) -> Transition:
        """Register a transition; input/output places must already exist."""
        if transition.name in self._transitions:
            raise PetriNetError(
                f"duplicate transition {transition.name!r}")
        for arc in transition.inputs:
            if arc.place not in self._places:
                raise PetriNetError(f"unknown place {arc.place!r}")
        for arc in transition.outputs:
            if arc.place not in self._places:
                raise PetriNetError(f"unknown place {arc.place!r}")
        self._transitions[transition.name] = transition
        self._order.append(transition.name)
        return transition

    # ------------------------------------------------------------------
    # marking access
    # ------------------------------------------------------------------

    def place(self, name: str) -> Place:
        """Look up a place."""
        if name not in self._places:
            raise PetriNetError(f"unknown place {name!r}")
        return self._places[name]

    def place_names(self) -> list[str]:
        """All place names in creation order."""
        return list(self._places)

    def transition_names(self) -> list[str]:
        """All transition names in registration order."""
        return list(self._order)

    def transition(self, name: str) -> Transition:
        """Look up a transition."""
        if name not in self._transitions:
            raise PetriNetError(f"unknown transition {name!r}")
        return self._transitions[name]

    def set_token(self, place: str, token: Sequence[float]) -> None:
        """Replace the marking of ``place`` with a single token."""
        p = self.place(place)
        p.clear()
        p.put(token)

    def marking(self) -> dict[str, list[Token]]:
        """The full marking, place name -> tokens."""
        return {name: list(p.tokens) for name, p in self._places.items()}

    def total_tokens(self) -> int:
        """Token count over all places (conservation checks)."""
        return sum(len(p) for p in self._places.values())

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------

    def binding_of(self, transition: Transition) -> Binding | None:
        """Bind the transition's input arcs against the current marking.

        Returns ``None`` when some input place is empty.  Conflicting
        bindings (same variable bound to different values by two arcs) make
        the transition disabled, per PrT unification semantics.
        """
        binding: Binding = {}
        for arc in transition.inputs:
            token = self.place(arc.place).peek()
            if token is None:
                return None
            if len(token) != len(arc.variables):
                raise PetriNetError(
                    f"arity mismatch on arc {arc.place}->{transition.name}")
            for var, value in zip(arc.variables, token):
                if var in binding and binding[var] != value:
                    return None
                binding[var] = value
        return binding

    def is_enabled(self, name: str) -> bool:
        """Whether ``name`` can fire under the current marking."""
        transition = self.transition(name)
        binding = self.binding_of(transition)
        if binding is None:
            return False
        if transition.guard is not None and not transition.guard(binding):
            return False
        return True

    def fire(self, name: str) -> Binding:
        """Fire ``name``: consume input tokens, produce output tokens."""
        transition = self.transition(name)
        binding = self.binding_of(transition)
        if binding is None:
            raise PetriNetError(f"{name} has no enabled binding")
        if transition.guard is not None and not transition.guard(binding):
            raise PetriNetError(f"guard of {name} rejects {binding}")
        for arc in transition.inputs:
            self.place(arc.place).take()
        for arc in transition.outputs:
            self.place(arc.place).put(arc.produce(binding))
        return binding

    def step(self) -> str | None:
        """Fire the first enabled transition (registration order)."""
        for name in self._order:
            if self.is_enabled(name):
                self.fire(name)
                return name
        return None

    # ------------------------------------------------------------------
    # incidence matrices (paper Figs 8-11)
    # ------------------------------------------------------------------

    def incidence(self) -> tuple[dict, dict, dict]:
        """Symbolic ``(Pre, Post, A^T)`` over (place, transition) pairs.

        Entries are arc labels (``"u"``, ``"na"``...) or ``0``; ``A^T``
        entries are ``-label`` / ``+label`` strings showing the token flow
        direction, mirroring the paper's presentation.
        """
        pre: dict[tuple[str, str], str | int] = {}
        post: dict[tuple[str, str], str | int] = {}
        for place in self._places:
            for tname in self._order:
                pre[(place, tname)] = 0
                post[(place, tname)] = 0
        for tname in self._order:
            transition = self._transitions[tname]
            for arc in transition.inputs:
                pre[(arc.place, tname)] = arc.label
            for arc in transition.outputs:
                post[(arc.place, tname)] = arc.label or "tok"
        incidence: dict[tuple[str, str], str | int] = {}
        for key in pre:
            p, q = pre[key], post[key]
            if p == 0 and q == 0:
                incidence[key] = 0
            elif p == 0:
                incidence[key] = f"+{q}"
            elif q == 0:
                incidence[key] = f"-{p}"
            else:
                incidence[key] = f"-{p}+{q}" if p != q else "0*"
        return pre, post, incidence
