"""The paper's 5-place / 8-transition performance model (Figs 8-11)."""

import pytest

from repro.core.model import PerformanceModel, TransitionChain
from repro.errors import PetriNetError


@pytest.fixture
def model():
    return PerformanceModel(th_min=10, th_max=70, n_total=16,
                            initial_cores=3)


def test_initial_marking(model):
    assert model.nalloc == 3
    marking = model.net.marking()
    assert marking["Checks"] == []
    assert marking["Idle"] == []
    assert marking["Stable"] == []
    assert marking["Overload"] == []


def test_overload_chain_allocates(model):
    """Paper Fig 9: u=99, 3 of 16 -> t1 then t5, nalloc 4."""
    chain = model.run_cycle(99.0)
    assert chain.label == "t1-Overload-t5"
    assert chain.action == "allocate"
    assert chain.nalloc_after == 4
    assert model.nalloc == 4


def test_overload_at_full_allocation_fires_t6():
    model = PerformanceModel(10, 70, n_total=4, initial_cores=4)
    chain = model.run_cycle(95.0)
    assert chain.label == "t1-Overload-t6"
    assert chain.action is None
    assert model.nalloc == 4


def test_idle_chain_releases():
    """Paper Fig 10: u=8 with 5 cores -> t0 then t4, one released."""
    model = PerformanceModel(10, 70, n_total=16, initial_cores=5)
    chain = model.run_cycle(8.0)
    assert chain.label == "t0-Idle-t4"
    assert chain.action == "release"
    assert model.nalloc == 4


def test_idle_at_minimum_fires_t7():
    model = PerformanceModel(10, 70, n_total=16, initial_cores=1)
    chain = model.run_cycle(2.0)
    assert chain.label == "t0-Idle-t7"
    assert chain.action is None
    assert model.nalloc == 1


def test_stable_chain_keeps_cores(model):
    """Paper Fig 11: u=40 -> t2 then t3, no change."""
    chain = model.run_cycle(40.0)
    assert chain.label == "t2-Stable-t3"
    assert chain.action is None
    assert model.nalloc == 3


def test_threshold_boundaries(model):
    assert model.run_cycle(10.0).state == "Idle"      # u <= thmin
    assert model.run_cycle(70.0).state == "Overload"  # u >= thmax
    assert model.run_cycle(10.01).state == "Stable"
    assert model.run_cycle(69.99).state == "Stable"


def test_token_returns_to_checks_every_cycle(model):
    for u in (5, 40, 99, 50, 0):
        model.run_cycle(u)
        assert len(model.net.place("Checks")) == 1
        assert model.net.total_tokens() == 2  # Checks + Provision


def test_cycle_sequence_tracks_staircase():
    model = PerformanceModel(10, 70, n_total=4, initial_cores=1)
    labels = [model.run_cycle(99.0).label for _ in range(5)]
    assert model.nalloc == 4  # capped at n_total
    assert labels[:3] == ["t1-Overload-t5"] * 3
    assert labels[3] == "t1-Overload-t6"


def test_state_of_classifier(model):
    assert model.state_of(5) == "Idle"
    assert model.state_of(50) == "Stable"
    assert model.state_of(90) == "Overload"


def test_sync_nalloc(model):
    model.sync_nalloc(7)
    assert model.nalloc == 7
    with pytest.raises(PetriNetError):
        model.sync_nalloc(17)
    with pytest.raises(PetriNetError):
        model.sync_nalloc(0)


def test_bad_parameters_rejected():
    with pytest.raises(PetriNetError):
        PerformanceModel(70, 10, n_total=16)
    with pytest.raises(PetriNetError):
        PerformanceModel(10, 70, n_total=16, initial_cores=17)
    with pytest.raises(PetriNetError):
        PerformanceModel(10, 70, n_total=16, n_min=2, initial_cores=1)


def test_incidence_matches_paper_overload_subnet():
    """Fig 9's Pre entries: Checks-t1 (u), Provision-t1 (na),
    Overload-t5 (na)."""
    model = PerformanceModel(10, 70, n_total=16)
    pre, post, _ = model.net.incidence()
    assert pre[("Checks", "t1")] == "u"
    assert pre[("Provision", "t1")] == "na"
    assert pre[("Overload", "t5")] == "na"
    assert post[("Overload", "t1")] == "na"
    assert post[("Provision", "t5")] == "na"
    assert post[("Checks", "t5")] == "u"
    # the paper: "Overload-t6" is not in Pre... of the *fired* arcs; the
    # structural matrix still carries it
    assert pre[("Overload", "t6")] == "na"


def test_incidence_matches_paper_stable_subnet():
    model = PerformanceModel(10, 70, n_total=16)
    pre, post, incidence = model.net.incidence()
    assert pre[("Checks", "t2")] == "u"
    assert post[("Stable", "t2")] == "u"
    assert pre[("Stable", "t3")] == "u"
    assert post[("Checks", "t3")] == "u"
    assert incidence[("Checks", "t2")] == "-u"
    assert incidence[("Stable", "t2")] == "+u"


def test_chain_dataclass_fields():
    chain = TransitionChain(entry="t1", state="Overload", exit="t5",
                            metric=99.0, nalloc_after=4)
    assert chain.action == "allocate"
    assert chain.label == "t1-Overload-t5"
