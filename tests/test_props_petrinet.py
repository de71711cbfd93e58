"""Property-based tests: PrT model invariants under arbitrary load traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import PerformanceModel

metrics = st.floats(min_value=0.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)


@given(st.lists(metrics, min_size=1, max_size=60))
@settings(max_examples=60)
def test_nalloc_always_within_bounds(trace):
    model = PerformanceModel(10, 70, n_total=16, initial_cores=1)
    for u in trace:
        model.run_cycle(u)
        assert 1 <= model.nalloc <= 16


@given(st.lists(metrics, min_size=1, max_size=60))
@settings(max_examples=60)
def test_token_count_conserved(trace):
    model = PerformanceModel(10, 70, n_total=16, initial_cores=4)
    for u in trace:
        model.run_cycle(u)
        # exactly one u-token (in Checks) and one na-token (in Provision)
        assert model.net.total_tokens() == 2
        assert len(model.net.place("Checks")) == 1
        assert len(model.net.place("Provision")) == 1


@given(st.lists(metrics, min_size=1, max_size=60))
@settings(max_examples=60)
def test_every_cycle_fires_exactly_one_chain(trace):
    model = PerformanceModel(10, 70, n_total=8, initial_cores=2)
    for i, u in enumerate(trace):
        chain = model.run_cycle(u)
        assert chain.entry in ("t0", "t1", "t2")
        assert chain.exit in ("t3", "t4", "t5", "t6", "t7")


@given(st.lists(metrics, min_size=1, max_size=60))
@settings(max_examples=60)
def test_nalloc_changes_by_at_most_one_per_cycle(trace):
    model = PerformanceModel(10, 70, n_total=16, initial_cores=8)
    previous = model.nalloc
    for u in trace:
        model.run_cycle(u)
        assert abs(model.nalloc - previous) <= 1
        previous = model.nalloc


@given(metrics, st.integers(min_value=1, max_value=16))
@settings(max_examples=60)
def test_state_classification_matches_chain(u, cores):
    model = PerformanceModel(10, 70, n_total=16, initial_cores=cores)
    chain = model.run_cycle(u)
    assert chain.state == model.state_of(u)


@given(st.lists(metrics, min_size=1, max_size=40),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_min_cores_respected(trace, n_min):
    model = PerformanceModel(10, 70, n_total=16, n_min=n_min,
                             initial_cores=n_min)
    for u in trace:
        model.run_cycle(u)
        assert model.nalloc >= n_min
