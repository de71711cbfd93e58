"""Exact simulated work of the benchmark workloads at smoke size.

The benchmark harness (``benchmarks/harness``) counts the work a pass
does through its layer ledger: delivered events, VM and machine calls
and pages, minor faults, L3 hits and misses, dispatches, steals and
controller passes.  These counts are deterministic, so any change to
them is a change in simulated work, caught here without timing noise.
A change that moves them on purpose updates the table below and says
why.

The harness modules are imported as they are, without edits: one
smoke-size pass per workload runs through ``LayerLedger`` (the ledger
the ``--trace 1`` pass uses) and ``ClientLedger``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "harness"
if str(HARNESS) not in sys.path:
    sys.path.insert(0, str(HARNESS))

from tracing import LayerLedger  # noqa: E402
from workloads import WORKLOADS, ClientLedger, prepare  # noqa: E402

from repro.runner import cache as result_cache  # noqa: E402
from repro.sim.engine import delivered_total  # noqa: E402

SEED = 42

#: workload -> exact counts of one smoke pass at seed 42
EXPECTED = {
    "q6-concurrency": {
        "sim.events": 2295,
        "opsys.vm.calls": 3078,
        "opsys.vm.pages": 95484,
        "opsys.vm.minor_faults": 51344,
        "hardware.machine.calls": 2580,
        "hardware.machine.pages": 69200,
        "hardware.machine.hits": 6848,
        "hardware.machine.misses": 62352,
        "dispatches": 2083,
        "steals": 149,
        "core.controller.passes": 98,
    },
    "tpch-mixed": {
        "sim.events": 8974,
        "opsys.vm.calls": 9847,
        "opsys.vm.pages": 270017,
        "opsys.vm.minor_faults": 149452,
        "hardware.machine.calls": 8672,
        "hardware.machine.pages": 217449,
        "hardware.machine.hits": 8090,
        "hardware.machine.misses": 209359,
        "dispatches": 8454,
        "steals": 479,
        "core.controller.passes": 247,
    },
    "c-kernel-strided": {
        "sim.events": 2532,
        "opsys.vm.calls": 3272,
        "opsys.vm.pages": 223356,
        "opsys.vm.minor_faults": 127701,
        "hardware.machine.calls": 2888,
        "hardware.machine.pages": 118220,
        "hardware.machine.hits": 8438,
        "hardware.machine.misses": 109782,
        "dispatches": 2456,
        "steals": 141,
        "core.controller.passes": 0,
    },
}


def _smoke_pass(name: str) -> dict[str, int]:
    """Counts of one ledger-traced smoke pass over ``name``'s cells."""
    workload = WORKLOADS[name]
    clients = ClientLedger()
    layers = LayerLedger()
    clients.install()
    try:
        prepare(workload, SEED)
        clients.take()
        dispatches = steals = 0
        events = delivered_total()
        layers.install()
        try:
            for cell in workload.cells(SEED, True):
                outcome = layers.run_cell(cell.id, cell.run)
                dispatches += outcome.dispatches
                steals += outcome.steals
        finally:
            layers.uninstall()
        events = delivered_total() - events
        _, _, client_dispatches, client_steals = clients.take()
    finally:
        clients.uninstall()
    c = layers.counts
    counts = {key: int(c[key]) for key in EXPECTED[name]
              if key in c and key != "sim.events"}
    counts["sim.events"] = events
    counts["dispatches"] = dispatches + client_dispatches
    counts["steals"] = steals + client_steals
    counts["core.controller.passes"] = int(c["core.controller.calls"])
    return counts


@pytest.fixture(autouse=True)
def _no_result_cache():
    previous = result_cache._CURRENT
    result_cache.configure(False)
    yield
    result_cache.configure(previous)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_smoke_pass_work_counts(name):
    assert _smoke_pass(name) == EXPECTED[name]
