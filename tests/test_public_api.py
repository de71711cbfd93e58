"""Public API surface and error hierarchy."""

import pytest

import repro
from repro import errors


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_string():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_error_hierarchy_roots_at_repro_error():
    subclasses = [
        errors.ConfigError, errors.SimulationError,
        errors.SchedulerError, errors.HardwareError,
        errors.DatabaseError, errors.PlanError, errors.WorkloadError,
        errors.PetriNetError, errors.AllocationError,
    ]
    for cls in subclasses:
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.PlanError, errors.DatabaseError)


def test_errors_catchable_via_base():
    with pytest.raises(errors.ReproError):
        raise errors.AllocationError("x")


def test_quickstart_snippet_from_the_readme():
    """The README's quickstart code runs as written."""
    from repro import build_system, repeat_stream

    sut = build_system(engine="monetdb", mode="adaptive", scale=0.004,
                       sim_scale=0.125)
    result = sut.run_clients(4, repeat_stream("q6", 2))
    assert result.throughput > 0
    assert sut.label == "monetdb/adaptive"
    assert sut.controller.lonc_report().mean_cores >= 1


def test_validator_importable_from_top_level_module():
    from repro.validate import SystemValidator  # noqa: F401
