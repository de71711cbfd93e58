"""Warm-start forking must be invisible in experiment results.

Every sweep harness grew a ``warm_start`` path that simulates the shared
prefix once and forks the cells from a capture.  The contract is strict:
the warm path's cells are *byte-identical* (under pickle) to the cold
path's, for every figure and at every parameterisation — warm-starting
is a wall-clock optimisation, never a semantics change.  Parameters here
are tiny; the harness-smoke CI job re-checks fig13 at bench scale.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.experiments import (fig13_scheduling, fig14_memory,
                               fig15_selectivity, fig17_strategies,
                               trials)
from repro.experiments.common import (attach_controller, build_system,
                                      capture_system, fork_system,
                                      warm_system)


def test_fig13_warm_equals_cold():
    kwargs = dict(users=(1, 2), repetitions=2, scale=0.01, sim_scale=1.0)
    cold = fig13_scheduling.run(warm_start=False, **kwargs)
    warm = fig13_scheduling.run(warm_start=True, **kwargs)
    assert list(warm.cells) == list(cold.cells)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)


def test_fig13_single_repetition_has_no_warmup_phase():
    """With one repetition there is nothing to amortise: every rep is
    measured, and warm/cold must still agree."""
    kwargs = dict(users=(1,), repetitions=1, scale=0.01, sim_scale=1.0)
    cold = fig13_scheduling.run(warm_start=False, **kwargs)
    warm = fig13_scheduling.run(warm_start=True, **kwargs)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)


def test_fig14_warm_equals_cold():
    kwargs = dict(n_clients=4, repetitions=1, scale=0.01, sim_scale=1.0)
    cold = fig14_memory.run(warm_start=False, **kwargs)
    warm = fig14_memory.run(warm_start=True, **kwargs)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)


def test_fig15_warm_equals_cold():
    kwargs = dict(levels=(0.02, 1.0), n_clients=2, repetitions=1,
                  scale=0.01, sim_scale=1.0)
    cold = fig15_selectivity.run(warm_start=False, **kwargs)
    warm = fig15_selectivity.run(warm_start=True, **kwargs)
    assert pickle.dumps(warm.misses) == pickle.dumps(cold.misses)


def test_fig17_warm_equals_cold():
    kwargs = dict(repetitions=1, warmup=1, scale=0.01, sim_scale=1.0)
    cold = fig17_strategies.run(warm_start=False, **kwargs)
    warm = fig17_strategies.run(warm_start=True, **kwargs)
    assert pickle.dumps(warm.cells) == pickle.dumps(cold.cells)


# ---------------------------------------------------------------------
# the harness primitives themselves


def test_attach_controller_refuses_double_attachment():
    sut = build_system(engine="monetdb", mode="dense", scale=0.01)
    with pytest.raises(ConfigError):
        attach_controller(sut, "sparse")


def test_capture_and_fork_share_the_dataset():
    sut = build_system(engine="monetdb", mode=None, scale=0.01)
    fork = fork_system(capture_system(sut))
    assert fork.dataset is sut.dataset
    assert fork.os is not sut.os


def test_warm_system_capture_is_small():
    """Shared-atom externalisation keeps captures in the kilobytes."""
    state = warm_system(scale=0.01)
    assert state.size_bytes() < 1_000_000


# ---------------------------------------------------------------------
# trials base passthrough


def _trial_runner(seed, base=None):
    return {"seed": seed, "forked": base is not None}


def test_run_trials_forwards_base_to_every_trial():
    base = warm_system(scale=0.01)
    stats = trials.run_trials(
        _trial_runner,
        extract=lambda r: {"forked": 1.0 if r["forked"] else 0.0,
                           "seed": float(r["seed"])},
        seeds=(1, 2, 3), base=base)
    assert stats.mean("forked") == 1.0
    assert stats.mean("seed") == 2.0


def test_run_trials_omits_base_by_default():
    stats = trials.run_trials(
        _trial_runner,
        extract=lambda r: {"forked": 1.0 if r["forked"] else 0.0},
        seeds=(1, 2))
    assert stats.mean("forked") == 0.0
