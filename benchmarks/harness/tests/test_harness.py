"""Self-tests of the benchmark harness at smoke size (users <= 4).

Run from the repository root::

    python3 -m pytest benchmarks/harness -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
from measure import HostClock
from tracing import UNATTRIBUTED, LayerLedger
from workloads import WORKLOADS, Cell, ClientLedger

HARNESS = Path(run.__file__).resolve().parent
ROOT = HARNESS.parents[1]
SEED = 42


@pytest.fixture
def clients():
    ledger = ClientLedger()
    ledger.install()
    yield ledger
    ledger.uninstall()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    command = [*spec["command"], "--workload", "c-kernel-strided",
               "--seed", str(SEED), "--trace", str(trace), "--smoke"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} \
        == expected
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_traced_counts_repeat_and_self_times_balance(clients):
    workload = WORKLOADS["q6-concurrency"]
    run.run_pass(workload, SEED, True, clients)  # warm-up: dataset cache
    ledgers, passes = [], []
    for _ in range(2):
        clock = HostClock()
        layers = LayerLedger(clock.now)
        layers.install()
        try:
            passes.append(run.run_pass(workload, SEED, True, clients,
                                       layers, clock=clock))
        finally:
            layers.uninstall()
        ledgers.append(layers)
    first, second = ledgers
    assert not passes[0].failures and not passes[1].failures
    assert dict(first.counts) == dict(second.counts)
    assert first.counts["sim.events"] > 0
    assert first.counts["core.controller.calls"] > 0
    assert first.counts["sim.state.restores"] > 0
    assert passes[0].digest == passes[1].digest
    assert passes[0].dispatches == passes[1].dispatches > 0
    for ledger, result in zip(ledgers, passes):
        assert all(seconds >= -1e-9 for seconds in ledger.self_s.values())
        assert ledger.self_s[UNATTRIBUTED] > 0
        total = sum(ledger.self_s.values())
        assert total == pytest.approx(result.wall_s - result.sampling_s,
                                      rel=0.01)
        cells = {span.args["cell"] for span in ledger.spans}
        assert cells == {cell["id"] for cell in result.cells}


def test_fanout_matches_serial_and_leaves_no_shm():
    before = set(os.listdir("/dev/shm"))
    doc = run.run_workload(WORKLOADS["fanout-p2"], SEED, smoke=True,
                           trace=False)
    assert set(os.listdir("/dev/shm")) - before == set()
    assert doc["cells_failed"] == 0 and doc["correct"]
    assert doc["recheck"]["ok"] and doc["recheck"]["cells"] == 15
    assert doc["recheck"]["completed"] == doc["counts"]["queries"][0]


def test_pooled_samples_visit_every_core_and_restore_affinity():
    cores = os.sched_getaffinity(0)
    clock = HostClock()
    clock.start(inside=False, pooled=True)
    for _ in range(2 * len(cores)):
        clock._on_alarm(None, None)
    assert os.sched_getaffinity(0) == cores
    timing = clock.finish(1.0, 1.0)
    assert set(timing.per_core) == cores
    assert all(len(v) == 2 for v in timing.per_core.values())
    per_core = [sum(v) / len(v) for v in timing.per_core.values()]
    assert timing.reference_s == pytest.approx(sum(per_core)
                                               / len(per_core))


def test_failing_cell_is_counted_and_the_pass_continues(clients):
    workload = WORKLOADS["c-kernel-strided"]
    cells = workload.cells(SEED, True)

    def boom():
        raise RuntimeError("injected failure")

    cells.insert(2, Cell("boom", boom))
    result = run.run_pass(workload, SEED, True, clients, cells=cells)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("boom:")
    assert "injected failure" in result.failures[0]
    assert [c["ok"] for c in result.cells].count(False) == 1
    assert all(c["queries"] > 0 for c in result.cells if c["ok"])
    assert len(result.cells) == len(cells)
