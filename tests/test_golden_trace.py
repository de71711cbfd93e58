"""Golden-trace regression: the controller's runs stay bit-identical.

Fixture traces under ``tests/fixtures/golden/`` pin the deterministic
trace the fig07, fig13 and fig16 harnesses export: a change to the
controller, the core-lease inventory or the simulator must leave every
run serialising to the same bytes.  They must also hold under any
``PYTHONHASHSEED``: iterating a set or dict of strings on the event path
would make the trace depend on the interpreter's hash seed.  No trace
golden covers two tenants, so a fixture of the two-controller
extension's outcome (slice samples, per-tenant rows, makespan) pins the
controller's foreign-aware plan step.

Regenerate (only when a trace change is *intended* and reviewed)::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments import (ext_multi_tenant,
                               fig07_state_transitions,
                               fig13_scheduling,
                               fig16_migration_modes)
from repro.sim.export import dump_records, load_records

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "fixtures" / "golden"

#: harness parameters are part of the fixture contract; change them only
#: together with a regeneration
FIG07_PARAMS = dict(repetitions=3, scale=0.01, sim_scale=1.0,
                    mode="adaptive", idle_tail=0.2)
FIG13_PARAMS = dict(mode="adaptive", users=4, repetitions=2, scale=0.01,
                    sim_scale=1.0)
FIG16_PARAMS = dict(repetitions=1, warmup=1, scale=0.01, sim_scale=1.0)

_REGEN = os.environ.get("GOLDEN_REGEN") == "1"


def _trace_bytes(records, tmp_path: pathlib.Path) -> bytes:
    path = tmp_path / "trace.jsonl"
    dump_records(records, path)
    return path.read_bytes()


def _matches_golden(exported: bytes, fixture: pathlib.Path) -> bool:
    """Record ``exported`` under regeneration, else compare it."""
    if _REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        fixture.write_bytes(exported)
        pytest.skip(f"regenerated {fixture.name}")
    if not fixture.exists():
        pytest.fail(f"golden fixture {fixture} missing; "
                    f"run with GOLDEN_REGEN=1 to record it")
    return exported == fixture.read_bytes()


def _check(records, fixture: pathlib.Path, tmp_path: pathlib.Path) -> None:
    if _matches_golden(_trace_bytes(records, tmp_path), fixture):
        return
    # byte-compare first (the contract), then diff record-wise for a
    # digestible failure message
    new = records
    old = load_records(fixture)
    detail = f"{len(old)} golden vs {len(new)} exported records"
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            detail += f"; first divergence at record {i}: {a} != {b}"
            break
    pytest.fail(f"{fixture.name}: exported trace diverged from the "
                f"golden fixture ({detail})")


def fig07_records():
    return fig07_state_transitions.run(**FIG07_PARAMS).records


def fig13_records():
    _, records = fig13_scheduling.run_traced(**FIG13_PARAMS)
    return records


def fig16_records():
    result = fig16_migration_modes.run(**FIG16_PARAMS)
    return [r for cell in result.cells.values() for r in cell.records]


#: golden fixture name -> the harness run that must reproduce it
GOLDEN_RUNS = {
    "fig07_trace.jsonl": fig07_records,
    "fig13_trace.jsonl": fig13_records,
    "fig16_trace.jsonl": fig16_records,
}


def test_fig07_trace_is_golden(tmp_path):
    records = fig07_records()
    assert records, "fig07 harness exported no records"
    _check(records, GOLDEN_DIR / "fig07_trace.jsonl", tmp_path)


def test_fig13_trace_is_golden(tmp_path):
    records = fig13_records()
    assert records, "fig13 harness exported no records"
    _check(records, GOLDEN_DIR / "fig13_trace.jsonl", tmp_path)


def test_fig16_trace_is_golden(tmp_path):
    records = fig16_records()
    assert records, "fig16 harness exported no records"
    _check(records, GOLDEN_DIR / "fig16_trace.jsonl", tmp_path)


def two_tenant_outcome() -> bytes:
    """The two-controller run's slice samples, table rows and makespan."""
    result = ext_multi_tenant.run()
    outcome = {"samples": result.samples, "rows": result.rows(),
               "makespan": result.makespan}
    return (json.dumps(outcome, indent=1) + "\n").encode()


def test_two_tenant_outcome_is_golden():
    # no trace golden covers two tenants, so this pins the controller's
    # foreign-aware seeding and allocation through their outcome
    fixture = GOLDEN_DIR / "two_tenant_outcome.json"
    exported = two_tenant_outcome()
    if _matches_golden(exported, fixture):
        return
    old = json.loads(fixture.read_bytes())
    new = json.loads(exported)
    diverged = [key for key in new if new[key] != old.get(key)]
    pytest.fail(f"{fixture.name}: the two-controller outcome diverged "
                f"from the golden fixture in {diverged}")


#: run in a fresh interpreter: print each golden the traces diverge from
_DIVERGED_SCRIPT = """
import pathlib, tempfile
from tests.test_golden_trace import GOLDEN_DIR, GOLDEN_RUNS, _trace_bytes
with tempfile.TemporaryDirectory() as tmp:
    for name, run in GOLDEN_RUNS.items():
        exported = _trace_bytes(run(), pathlib.Path(tmp))
        if exported != (GOLDEN_DIR / name).read_bytes():
            print(name)
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_golden_traces_hold_under_hash_seed(hash_seed):
    # the hash seed is fixed at interpreter start, so each seed needs
    # its own process; two seeds order a set of strings differently
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _DIVERGED_SCRIPT],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], (
        f"PYTHONHASHSEED={hash_seed}: traces diverged from "
        f"{done.stdout.split()}")
