"""Forking a sweep cell from a captured prefix must be invisible in results.

Every fig13–17 sweep builds its shared prefix once, captures it, and
forks each cell from the capture.  The contract is strict: each cell
``run()`` returns is *byte-identical* (under pickle) to the same cell
simulated uninterrupted on a cold-built system.  The cold references are
built here, from :func:`~repro.experiments.common.build_system` and each
module's own measuring helper, so the source keeps one path per cell.
Parameters are tiny.
"""

from __future__ import annotations

import pickle

import pytest

from repro.db.clients import repeat_stream
from repro.errors import ConfigError
from repro.experiments import (fig13_scheduling, fig14_memory,
                               fig15_selectivity, fig16_migration_modes,
                               fig17_strategies)
from repro.experiments.common import (attach_controller, build_system,
                                      capture_system, fork_system,
                                      warm_system)
from repro.obs.recorder import recording


def _assert_same_bytes(forked: dict, cold: dict) -> None:
    """Same keys in the same order, and each cell pickles identically.

    Cells are pickled one by one: a whole-dict pickle would also compare
    which objects the cells share with each other (fig16's cold cells
    share an operator-name string that each fork unpickles on its own),
    which is not part of any result.
    """
    assert list(forked) == list(cold)
    for key in cold:
        assert pickle.dumps(forked[key]) == pickle.dumps(cold[key]), key


def _cold(**kwargs):
    return build_system(engine="monetdb", mode=None, scale=0.01,
                        sim_scale=1.0, **kwargs)


def _fig13_cold(users, repetitions):
    """fig13's cells in ``run()`` order, each warmed up uninterrupted."""
    warmup, measured = fig13_scheduling._split_repetitions(repetitions)
    cells = {}
    for mode in fig13_scheduling.MODES:
        for n in users:
            sut = _cold()
            if warmup:
                sut.run_clients(n, repeat_stream(
                    fig13_scheduling.WORKLOAD_QUERY, warmup))
            attach_controller(sut, mode)
            cells[(mode or "OS", n)] = fig13_scheduling._measure_cell(
                sut, n, measured)
    return cells


def test_fig13_warm_equals_cold():
    forked = fig13_scheduling.run(users=(1, 2), repetitions=2)
    _assert_same_bytes(forked.cells, _fig13_cold((1, 2), 2))


def test_fig13_single_repetition_has_no_warmup_phase():
    """With one repetition there is nothing to amortise: every rep is
    measured, and the forked cells still match the cold ones."""
    forked = fig13_scheduling.run(users=(1,), repetitions=1)
    _assert_same_bytes(forked.cells, _fig13_cold((1,), 1))


def test_fig14_warm_equals_cold():
    forked = fig14_memory.run(n_clients=4, repetitions=1)
    cold = {mode or "OS": fig14_memory._measure_cell(_cold(), mode, 4, 1)
            for mode in fig14_memory.MODES}
    _assert_same_bytes(forked.cells, cold)


def test_fig15_warm_equals_cold():
    levels = (0.02, 1.0)
    forked = fig15_selectivity.run(levels=levels, n_clients=2,
                                   repetitions=1)
    cold = {(mode or "OS", level): fig15_selectivity._measure_cell(
                _cold(), mode, level, 2, 1)
            for mode in fig15_selectivity.MODES for level in levels}
    _assert_same_bytes(forked.misses, cold)


def test_fig16_warm_equals_cold():
    forked = fig16_migration_modes.run(repetitions=1, warmup=1)
    cold = {mode or "OS": fig16_migration_modes._measure_cell(
                _cold(record_placements=True), mode, 1, 1)
            for mode in fig16_migration_modes.MODES}
    _assert_same_bytes(forked.cells, cold)


def test_fig17_warm_equals_cold():
    forked = fig17_strategies.run(repetitions=1, warmup=1)
    keys = [(None, "-")]
    keys += [(mode, strategy) for strategy in fig17_strategies.STRATEGIES
             for mode in fig17_strategies.MODES]
    cold = {}
    for mode, strategy in keys:
        sut = attach_controller(_cold(), mode,
                                strategy=strategy if mode else "cpu_load")
        cold[(mode or "OS", strategy)] = fig17_strategies._measure(
            sut, 1, 1)
    _assert_same_bytes(forked.cells, cold)


def test_forked_cells_record_into_the_live_recorder():
    """A fork's controller logs into the installed recorder, exactly as
    many decisions as the cold cells log."""
    with recording() as forked:
        fig13_scheduling.run(users=(2,), repetitions=2)
    with recording() as cold:
        _fig13_cold((2,), 2)
    assert len(forked.decisions) > 0
    assert len(forked.decisions) \
        == forked.metrics.get("controller.ticks").value
    assert len(forked.decisions) == len(cold.decisions)


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
