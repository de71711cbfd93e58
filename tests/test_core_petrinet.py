"""Generic PrT net: tokens, guards, firing, incidence matrices."""

import pytest

from repro.core.petrinet import Arc, OutputArc, PetriNet, Transition
from repro.errors import PetriNetError


def simple_net() -> PetriNet:
    """A -> t -> B moving a valued token when value >= 5."""
    net = PetriNet()
    net.add_place("A")
    net.add_place("B")
    net.add_transition(Transition(
        "t", guard=lambda b: b["x"] >= 5,
        inputs=[Arc("A", ("x",), "x")],
        outputs=[OutputArc("B", lambda b: (b["x"] + 1,), "x")]))
    return net


def test_place_token_fifo():
    net = PetriNet()
    place = net.add_place("P")
    place.put((1.0,))
    place.put((2.0,))
    assert place.peek() == (1.0,)
    assert place.take() == (1.0,)
    assert len(place) == 1


def test_take_from_empty_rejected():
    net = PetriNet()
    with pytest.raises(PetriNetError):
        net.add_place("P").take()


def test_enabled_requires_token_and_guard():
    net = simple_net()
    assert not net.is_enabled("t")           # no token
    net.set_token("A", (3,))
    assert not net.is_enabled("t")           # guard fails
    net.set_token("A", (7,))
    assert net.is_enabled("t")


def test_fire_moves_and_transforms_token():
    net = simple_net()
    net.set_token("A", (7,))
    binding = net.fire("t")
    assert binding == {"x": 7.0}
    assert net.place("A").peek() is None
    assert net.place("B").peek() == (8.0,)


def test_fire_disabled_rejected():
    net = simple_net()
    with pytest.raises(PetriNetError):
        net.fire("t")
    net.set_token("A", (1,))
    with pytest.raises(PetriNetError):
        net.fire("t")


def test_step_fires_first_enabled():
    net = simple_net()
    assert net.step() is None
    net.set_token("A", (9,))
    assert net.step() == "t"


def test_arity_mismatch_detected():
    net = PetriNet()
    net.add_place("A")
    net.add_place("B")
    net.add_transition(Transition(
        "t", inputs=[Arc("A", ("x", "y"))],
        outputs=[OutputArc("B", lambda b: (0,))]))
    net.set_token("A", (1,))
    with pytest.raises(PetriNetError):
        net.is_enabled("t")


def test_conflicting_binding_disables():
    net = PetriNet()
    net.add_place("A")
    net.add_place("B")
    net.add_place("C")
    net.add_transition(Transition(
        "t", inputs=[Arc("A", ("x",)), Arc("B", ("x",))],
        outputs=[OutputArc("C", lambda b: (b["x"],))]))
    net.set_token("A", (1,))
    net.set_token("B", (2,))  # binds x to a different value
    assert not net.is_enabled("t")
    net.set_token("B", (1,))
    assert net.is_enabled("t")


def test_unknown_place_in_transition_rejected():
    net = PetriNet()
    net.add_place("A")
    with pytest.raises(PetriNetError):
        net.add_transition(Transition(
            "t", inputs=[Arc("missing", ("x",))]))


def test_duplicate_transition_rejected():
    net = simple_net()
    with pytest.raises(PetriNetError):
        net.add_transition(Transition("t"))


def test_total_tokens_conserved_by_simple_net():
    net = simple_net()
    net.set_token("A", (10,))
    before = net.total_tokens()
    net.fire("t")
    assert net.total_tokens() == before


def test_incidence_matrices():
    net = simple_net()
    pre, post, incidence = net.incidence()
    assert pre[("A", "t")] == "x"
    assert pre[("B", "t")] == 0
    assert post[("B", "t")] == "x"
    assert incidence[("A", "t")] == "-x"
    assert incidence[("B", "t")] == "+x"


def test_marking_snapshot():
    net = simple_net()
    net.set_token("A", (4,))
    marking = net.marking()
    assert marking == {"A": [(4.0,)], "B": []}
