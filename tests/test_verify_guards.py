"""Guard coverage and bounded reachability over the discretized space."""

import pytest

from repro.core.model import PerformanceModel
from repro.verify import (check_guard_coverage, check_reachability,
                          metric_samples, verify_performance_model)

from tests.fixtures.broken_models import (build_correct, build_gap,
                                          build_leaky, build_no_floor,
                                          build_overlap, build_overshoot)


# ------------------------------------------------------------------
# probing values
# ------------------------------------------------------------------

def test_samples_include_breakpoints_and_neighbourhoods():
    model = PerformanceModel(10, 70, 4)
    model.metric_domain = (0.0, 100.0)
    samples = metric_samples(model)
    assert 10.0 in samples and 70.0 in samples
    assert any(10.0 < s < 10.001 for s in samples)
    assert any(69.999 < s < 70.0 for s in samples)
    assert min(samples) == 0.0 and max(samples) == 100.0
    assert samples == sorted(samples)


def test_samples_respect_declared_breakpoints():
    model = build_gap()
    assert 25.0 in metric_samples(model)


# ------------------------------------------------------------------
# coverage
# ------------------------------------------------------------------

def test_shipped_model_coverage_is_exact():
    for th_min, th_max, domain in ((10, 70, (0.0, 100.0)),
                                   (0.1, 0.4, (0.0, 1.0))):
        model = PerformanceModel(th_min, th_max, 8)
        model.metric_domain = domain
        assert check_guard_coverage(model) == []


def test_gap_is_found_and_named():
    findings = check_guard_coverage(build_gap())
    assert findings
    assert all(f.check == "guard-coverage" for f in findings)
    assert any("gap" in f.message for f in findings)


def test_overlap_is_found_with_both_transitions_named():
    findings = check_guard_coverage(build_overlap())
    assert any("overlap" in f.message and "t0" in f.message
               and "t2" in f.message for f in findings)


def test_coverage_check_restores_the_marking():
    model = PerformanceModel(10, 70, 4)
    before = model.net.marking()
    check_guard_coverage(model)
    assert model.net.marking() == before


# ------------------------------------------------------------------
# bounded reachability
# ------------------------------------------------------------------

def test_shipped_model_reaches_every_core_count():
    model = PerformanceModel(10, 70, 8)
    model.metric_domain = (0.0, 100.0)
    assert check_reachability(model) == []


def test_missing_floor_transition_deadlocks():
    findings = check_reachability(build_no_floor())
    assert any("does not return" in f.message for f in findings)


def test_overshoot_breaks_core_conservation():
    findings = check_reachability(build_overshoot())
    assert any("allocated + free == n_total" in f.message
               for f in findings)


def test_leaky_net_fails_reachability_too():
    findings = check_reachability(build_leaky())
    assert findings


def test_reachability_restores_marking_and_log():
    model = PerformanceModel(10, 70, 4)
    model.run_cycle(50.0)
    before_marking = model.net.marking()
    before_cores = model.nalloc
    check_reachability(model)
    assert model.net.marking() == before_marking
    assert model.nalloc == before_cores


def test_unreachable_core_counts_are_reported():
    # min_cores == n_total == 1 is trivially complete...
    model = PerformanceModel(10, 70, 1)
    model.metric_domain = (0.0, 100.0)
    assert check_reachability(model) == []
    # ...and a model whose t5 never fires strands below n_total
    from tests.fixtures.broken_models import BrokenModel, _build_net
    stranded = BrokenModel(_build_net(10.0, 70.0, 4, 1, t5_cap=1),
                           10.0, 70.0, 4)
    findings = check_reachability(stranded)
    assert any("unreachable" in f.message for f in findings)


# ------------------------------------------------------------------
# the whole driver
# ------------------------------------------------------------------

def test_driver_clean_on_correct_fixture():
    report = verify_performance_model(build_correct())
    assert report.ok
    assert set(report.checks_run) == {
        "structure", "p-invariant", "t-invariant", "guard-coverage",
        "reachability"}


@pytest.mark.parametrize("builder,check", [
    (build_gap, "guard-coverage"),
    (build_overlap, "guard-coverage"),
    (build_leaky, "p-invariant"),
    (build_no_floor, "reachability"),
    (build_overshoot, "reachability"),
])
def test_driver_names_the_violated_property(builder, check):
    report = verify_performance_model(builder())
    assert not report.ok
    assert any(f.check == check for f in report.findings)
