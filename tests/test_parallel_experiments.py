"""Parallel fan-out produces bit-identical results to serial runs.

These tests exercise the real spawn pool, so they carry worker start-up
cost; the parameterisations are kept minimal.  The fig16 test is the
parallel half of the golden-trace contract: the fan-out may not perturb
a single exported byte.
"""

from __future__ import annotations

import pathlib

from repro.experiments import fig13_scheduling, fig16_migration_modes
from repro.experiments.trials import run_trials
from repro.runner.pool import last_pool_stats
from repro.sim.export import dump_records

GOLDEN = (pathlib.Path(__file__).parent / "fixtures" / "golden"
          / "fig16_trace.jsonl")

#: must match tests/test_golden_trace.py FIG16_PARAMS
FIG16_PARAMS = dict(repetitions=1, warmup=1, scale=0.01, sim_scale=1.0)


def test_fig13_parallel_equals_serial():
    kwargs = dict(users=(1, 4), repetitions=1)
    serial = fig13_scheduling.run(**kwargs)
    par = fig13_scheduling.run(**kwargs, parallel=2)
    assert list(par.cells) == list(serial.cells)
    assert par.cells == serial.cells


def test_fig16_parallel_trace_is_bit_identical_to_golden(tmp_path):
    if not GOLDEN.exists():
        import pytest
        pytest.skip("golden fixture missing")
    result = fig16_migration_modes.run(**FIG16_PARAMS, parallel=2)
    records = [r for cell in result.cells.values() for r in cell.records]
    path = tmp_path / "trace.jsonl"
    dump_records(records, path)
    assert path.read_bytes() == GOLDEN.read_bytes()
    # fig16's fan-out ships a warm capture: its bulk atoms must have
    # crossed once per worker as out-of-band buffers in the mapped
    # atom file, not inside each task pickle
    stats = last_pool_stats()
    assert stats is not None and stats.shm_bytes > 0
    assert stats.ipc_task_bytes < stats.shm_bytes
    assert stats.tasks == len(result.cells)
    assert 0.0 < stats.mean_utilisation() <= 1.0


def _trial_runner(seed):
    return seed * 2


def test_run_trials_parallel_matches_serial():
    spec = "tests.test_parallel_experiments:_trial_runner"
    serial = run_trials(spec, extract=lambda r: {"value": r},
                        seeds=(1, 2, 3))
    par = run_trials(spec, extract=lambda r: {"value": r},
                     seeds=(1, 2, 3), parallel=2)
    assert par.samples == serial.samples == {"value": [2.0, 4.0, 6.0]}
