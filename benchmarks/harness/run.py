#!/usr/bin/env python3
"""Paper-scale benchmark runner for the elastic multi-core allocator.

Runs one workload of ``workloads.py`` (or all four) against the library
under ``src/`` of this checkout, checks its outputs, and prints as its
last line one JSON object::

    {"correct": true, "attempted": 85, "failed": 0,
     "metrics": {"queries_per_s": {"value": 243.1, "unit": "q/s"}, ...}}

Run from the repository root::

    python3 benchmarks/harness/run.py --workload q6-concurrency --seed 42 \\
        --seconds 20 --trace 0
    python3 benchmarks/harness/run.py --json out.json   # all four
    python3 benchmarks/harness/run.py --smoke           # users <= 4

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds one traced pass and reports the per-layer metrics,
writing ``trace.json`` (Chrome trace_event) and ``layers.json`` under
``benchmarks/harness/out/``.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"run.py: the repro package is missing under {SRC}")
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from measure import (R0_SECONDS, HostClock, ReferenceLoop,  # noqa: E402
                     cpu_seconds, peak_rss_mb, summarise)
from tracing import LayerLedger, layer_metrics  # noqa: E402
from workloads import (PARALLEL, WORKLOADS, Cell, ClientLedger,  # noqa: E402
                       Workload, prepare)

from repro.obs.export import dump_chrome_trace  # noqa: E402
from repro.runner import cache as result_cache  # noqa: E402
from repro.sim.engine import delivered_total  # noqa: E402
from repro.validate import SystemValidator  # noqa: E402

#: end-to-end metric -> unit (BENCHMARK.json lists the same)
END_TO_END = {
    "queries_per_s": "q/s",
    "setup_s": "s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MB",
}

#: fresh-interpreter set-up launches per run; setup_s is their median
#: (a launch reads 11-15 % apart from the next after normalisation, so
#: seven rather than five keep the ten-seed spread under a third of the
#: bound)
SETUP_LAUNCHES = 7

#: fewest timed passes a ``--seconds`` budget runs
MIN_PASSES = 2

#: the new-idle balancer recurses once per thread it drains
#: (``Scheduler._dispatch`` -> ``_idle_pull``), and with 256 clients x 16
#: workers some seeds need more than the default 1000 frames
RECURSION_LIMIT = 20_000


class CellCheckError(Exception):
    """A cell ran but its output failed a check."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """Timings, counts and digests of one pass over a workload's cells."""

    cells: list[dict] = field(default_factory=list)
    queries: int = 0
    wall_s: float = 0.0
    #: wall seconds of in-cell reference samples (inside ``wall_s``)
    sampling_s: float = 0.0
    norm_wall_s: float = 0.0
    cpu_s: float = 0.0
    norm_cpu_s: float = 0.0
    sim_events: int = 0
    dispatches: int = 0
    steals: int = 0
    failures: list[str] = field(default_factory=list)
    #: wall seconds of every boundary reference measurement
    refs: list[float] = field(default_factory=list)
    pool: object = None
    #: per cell, the digest of each of its parts
    part_digests: list[list[str]] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """Hash of the ordered cell digests (each cell digested alone)."""
        return _digest("\n".join(_digest(" ".join(parts))
                                 for parts in self.part_digests))

    @property
    def queries_per_s(self) -> float:
        return self.queries / self.norm_wall_s if self.norm_wall_s else 0.0

    @property
    def cpu_ms_per_query(self) -> float:
        return self.norm_cpu_s / self.queries * 1e3 if self.queries else 0.0


def _check(outcome, submitted: int, completed: int) -> None:
    if completed != submitted:
        raise CellCheckError(
            f"{completed} of {submitted} submitted queries completed")
    for os_, controller in outcome.systems:
        SystemValidator(os_, controller).check()


def run_pass(workload: Workload, seed: int, smoke: bool,
             clients: ClientLedger, layers: LayerLedger | None = None,
             cells: list[Cell] | None = None,
             clock: HostClock | None = None) -> PassResult:
    """Time every cell of one pass, then check it outside the timer.

    A failing cell is recorded in ``failures`` and the pass continues.
    A traced pass's ``layers`` must read ``clock.now``.
    """
    if cells is None:
        cells = workload.cells(seed, smoke)
    if clock is None:
        clock = HostClock()
    result = PassResult()
    first_boundary = len(clock.boundaries)
    events = delivered_total()
    for cell in cells:
        clients.take()
        # every cell starts from a collected heap: garbage of the last
        # cell is neither collected inside this one's timer nor on top
        # of its peak resident set
        gc.collect()
        outcome = error = None
        clock.start(pooled=cell.pooled)
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            if layers is None:
                outcome = cell.run()
            else:
                outcome = layers.run_cell(cell.id, cell.run)
        except Exception:  # a failing cell is counted, not fatal
            error = traceback.format_exc()
        finally:
            clock.disarm()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        timing = clock.finish(wall, cpu)
        submitted, completed, dispatches, steals = clients.take()
        parts: list[str] = []
        if outcome is not None:
            submitted += outcome.submitted
            completed += outcome.completed
            dispatches += outcome.dispatches
            steals += outcome.steals
            try:
                _check(outcome, submitted, completed)
                parts = [_digest(repr(part)) for part in outcome.parts]
            except Exception:
                error = traceback.format_exc()
            if outcome.pool is not None:
                result.pool = outcome.pool
        outcome = None
        if error is not None:
            print(f"cell {cell.id} failed:\n{error}", file=sys.stderr)
            result.failures.append(
                f"{cell.id}: {error.strip().splitlines()[-1]}")
            completed = 0
        result.part_digests.append(parts)
        result.queries += completed
        result.dispatches += dispatches
        result.steals += steals
        result.wall_s += wall
        result.sampling_s += timing.sampling_s
        result.norm_wall_s += timing.norm_wall_s
        result.cpu_s += cpu
        result.norm_cpu_s += timing.norm_cpu_s
        result.cells.append({
            "id": cell.id, "wall_s": wall, "norm_wall_s": timing.norm_wall_s,
            "cpu_s": cpu, "norm_cpu_s": timing.norm_cpu_s,
            "queries": completed, "ok": error is None,
            "reference_s": timing.reference_s,
            "samples": len(timing.samples)})
    result.sim_events = delivered_total() - events
    result.refs = [wall for wall, _ in clock.boundaries[first_boundary:]]
    return result


def measure_setup(workload: Workload, seed: int,
                  loop: ReferenceLoop) -> tuple[list, list]:
    """(normalised, raw) seconds of fresh-interpreter set-up launches.

    The launches and their reference samples run pinned to one core (the
    child inherits the pin).  The two vCPUs of the calibration host are
    at times unequally loaded, and an unpinned launch landing on the
    other one than the samples read 0.25 s normalised against the usual
    0.44 s; pinned, both always measure the same core.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(seed)]
    clock = HostClock(loop)
    normalised, raw = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        for _ in range(SETUP_LAUNCHES):
            clock.start(inside=False)
            start = time.perf_counter()
            # no timeout: with one, Popen.wait polls in steps of up to
            # 50 ms, which quantised launch times to multiples of it
            subprocess.run(probe, check=True, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - start
            raw.append(wall)
            normalised.append(clock.finish(wall, 0.0).norm_wall_s)
    finally:
        os.sched_setaffinity(0, cpus)
    return normalised, raw


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for shared memory.

    It would otherwise outlive the run by a moment; ``_stop`` waits for
    it (private API, present on the supported Pythons).
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def timed_passes(run_one, passes: int | None,
                 seconds: float | None) -> list[PassResult]:
    """Run ``passes`` passes, or whole passes for about ``seconds``.

    A time budget stops before a pass that would end more than half a
    pass past it, after at least :data:`MIN_PASSES`: a slow phase of the
    host costs passes, not run time.
    """
    done: list[PassResult] = []
    started = time.perf_counter()
    while passes is None or len(done) < passes:
        if seconds is not None and len(done) >= MIN_PASSES:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(done) / 2 > seconds:
                break
        done.append(run_one())
    return done


def run_workload(workload: Workload, seed: int, smoke: bool, trace: bool,
                 passes: int | None = None,
                 seconds: float | None = None) -> dict:
    """One full run: warm-up, timed passes, checks; the result document.

    Without ``passes`` or ``seconds`` the workload's default pass count
    runs; a traced run spends half of ``seconds`` on untraced passes and
    then adds the traced one.
    """
    if smoke:
        passes, seconds = 1, None
    elif passes is None and seconds is None:
        passes = workload.passes
    result_cache.configure(False)  # REPRO_CACHE=1 must not replay cells
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    clients = ClientLedger()
    clients.install()
    clock = HostClock()
    setup_layers = LayerLedger()
    try:
        if trace:
            # set-up runs first so the dataset generation is measured
            setup_layers.install()
            try:
                prepare(workload, seed)
            finally:
                setup_layers.uninstall()
        # untimed warm-up at smoke size: imports, the dataset cache and
        # every code path are hot before the first timed cell
        warmup = run_pass(workload, seed, True, clients, clock=clock)
        if trace:
            passes = None if passes is None else max(passes - 1, 1)
            seconds = None if seconds is None else seconds / 2
        timed = timed_passes(
            lambda: run_pass(workload, seed, smoke, clients, clock=clock),
            passes, seconds)
        traced = layers = None
        if trace:
            layers = LayerLedger(clock.now)
            layers.install()
            try:
                started = clock.now()
                traced = run_pass(workload, seed, smoke, clients, layers,
                                  clock=clock)
                layers.add_span("pass", started, clock.now(),
                                {"cells": len(traced.cells)})
            finally:
                layers.uninstall()
        rss = peak_rss_mb()
        recheck = _recheck(workload, seed, smoke, clients, timed[-1])
    finally:
        clients.uninstall()
        _stop_resource_tracker()
    setup = (measure_setup(workload, seed, clock.loop) if not trace
             else ([], []))
    return _document(workload, seed, smoke, warmup, timed, traced, layers,
                     setup_layers, recheck, rss, setup)


def _recheck(workload: Workload, seed: int, smoke: bool,
             clients: ClientLedger, reference: PassResult) -> dict | None:
    """Recompute the fan-out serially (untimed); must match per cell."""
    if workload.recheck is None:
        return None
    clients.take()
    try:
        parts = workload.recheck(seed, smoke)
    except Exception:
        return {"ok": False, "error": traceback.format_exc()}
    submitted, completed, _, _ = clients.take()
    digests = [_digest(repr(part)) for part in parts]
    expected = reference.part_digests[0] if reference.part_digests else []
    mismatched = [i for i, (a, b) in enumerate(zip(digests, expected))
                  if a != b]
    ok = (len(digests) == len(expected) and not mismatched
          and completed == submitted == reference.queries)
    return {"ok": ok, "cells": len(digests), "mismatched": mismatched,
            "submitted": submitted, "completed": completed}


def _cell_medians(passes: list[PassResult], key: str) -> float:
    """Sum over cells of each cell's median ``key`` across passes.

    A slow phase of the host that hits one cell in one pass barely moves
    that cell's median; summing per-cell medians instead of taking the
    median pass cut the ten-seed spread of ``c-kernel-strided``'s
    throughput from 3.2 % to 1.8 % (16 short cells per pass).
    """
    return sum(statistics.median(p.cells[i][key] for p in passes)
               for i in range(len(passes[0].cells)))


def _metric(value: float, unit: str, values: list[float],
            raw: list[float]) -> dict:
    """The reported ``value`` plus the summary of what it came from."""
    doc = {"value": value, "unit": unit}
    doc.update(summarise(values))
    doc.update(values=values, raw_values=raw)
    return doc


def _document(workload, seed, smoke, warmup, timed, traced, layers,
              setup_layers, recheck, rss, setup) -> dict:
    checked = timed + ([traced] if traced else [])
    runs = [warmup, *checked]
    failures = [f for p in runs for f in p.failures]
    digests = {p.digest for p in checked if not p.failures}
    refs = [r for p in timed for r in p.refs]
    queries = statistics.median(p.queries for p in timed)
    wall = _cell_medians(timed, "norm_wall_s")
    metrics = {
        "queries_per_s": _metric(
            queries / wall if wall else 0.0, "q/s",
            [p.queries_per_s for p in timed],
            [p.queries / p.wall_s for p in timed if p.wall_s]),
        "cpu_ms_per_query": _metric(
            _cell_medians(timed, "norm_cpu_s") / queries * 1e3
            if queries else 0.0, "ms",
            [p.cpu_ms_per_query for p in timed],
            [p.cpu_s / p.queries * 1e3 for p in timed if p.queries]),
        "peak_rss_mb": _metric(rss, "MB", [rss], [rss]),
    }
    if setup[0]:
        metrics["setup_s"] = _metric(statistics.median(setup[0]), "s",
                                     setup[0], setup[1])
    attempted = sum(len(p.cells) for p in runs)
    failed = len(failures)
    if recheck is not None:
        attempted += 1
        failed += 0 if recheck["ok"] else 1
    doc = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "passes": len(timed),
        "parallel": PARALLEL,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "r0_s": R0_SECONDS,
        "reference_ms": {"median": statistics.median(refs) * 1e3,
                         "n": len(refs)},
        "metrics": metrics,
        "cells": attempted,
        "cells_failed": failed,
        "failures": failures,
        "digest": checked[0].digest,
        "digests_agree": len(digests) == 1 and not failures,
        "recheck": recheck,
        "counts": {
            "queries": [p.queries for p in timed],
            "sim_events": [p.sim_events for p in timed],
            "dispatches": [p.dispatches for p in timed],
            "steals": [p.steals for p in timed],
        },
        "pass_cells": [p.cells for p in timed],
    }
    doc["correct"] = (failed == 0 and doc["digests_agree"]
                      and len({p.sim_events for p in checked}) == 1)
    if traced is not None:
        doc["layers"] = _layer_document(workload, seed, timed, traced,
                                        layers, setup_layers)
    return doc


def _layer_document(workload, seed, timed, traced, layers,
                    setup_layers) -> dict:
    untraced = statistics.median(p.norm_wall_s for p in timed)
    pool = traced.pool
    metrics = layer_metrics(layers, setup_layers,
                            {"dispatches": traced.dispatches,
                             "steals": traced.steals}, pool)
    metrics["harness.pass_s"] = (traced.wall_s - traced.sampling_s, "s")
    metrics["trace.overhead_pct"] = (
        (traced.norm_wall_s - untraced) / untraced * 100.0, "%")
    out = OUT / f"{workload.name}-s{seed}"
    out.mkdir(parents=True, exist_ok=True)
    dump_chrome_trace(layers.spans, out / "trace.json")
    ledger = {
        "workload": workload.name, "seed": seed,
        "pass_wall_s": traced.wall_s - traced.sampling_s,
        "self_s": dict(sorted(layers.self_s.items())),
        "share": {layer: seconds / (traced.wall_s - traced.sampling_s)
                  for layer, seconds in sorted(layers.self_s.items())},
        "counts": dict(sorted(layers.counts.items())),
        "setup_self_s": dict(sorted(setup_layers.self_s.items())),
        "per_cell": layers.per_cell,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out / "layers.json").write_text(json.dumps(ledger, indent=1) + "\n")
    return {"metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "files": [str((out / name).relative_to(ROOT))
                      for name in ("trace.json", "layers.json")]}


# ----------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_report(doc: dict) -> None:
    print(f"== {doc['workload']}  seed {doc['seed']}  passes "
          f"{doc['passes']}  parallel {doc['parallel']}  cpu_count "
          f"{doc['cpu_count']}  reference median "
          f"{doc['reference_ms']['median']:.3f} ms "
          f"(n={doc['reference_ms']['n']})")
    for name, m in doc["metrics"].items():
        raw = ", ".join(f"{v:.6g}" for v in m["raw_values"])
        print(f"  {name:18s} {_fmt(m['value'])} {m['unit']}  over "
              f"n={m['n']}: median {_fmt(m['median'])}  q1 "
              f"{_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  raw [{raw}]")
    print(f"  cells {doc['cells']}  cells_failed {doc['cells_failed']}  "
          f"digest {doc['digest'][:16]}  agree {doc['digests_agree']}")
    for failure in doc["failures"]:
        print("  FAILED " + failure)
    if doc.get("layers"):
        for name, m in doc["layers"]["metrics"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")


def result_line(doc: dict, trace: bool) -> dict:
    if trace:
        metrics = doc["layers"]["metrics"]
    else:
        metrics = {name: {"value": doc["metrics"][name]["value"],
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": bool(doc["correct"]), "attempted": doc["cells"],
            "failed": doc["cells_failed"], "metrics": metrics}


def run_all(args) -> tuple[dict, dict]:
    """Every workload in its own interpreter (clean peak-RSS and CPU)."""
    OUT.mkdir(parents=True, exist_ok=True)
    docs, metrics = {}, {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        path = OUT / f"all-{name}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(int(args.trace)), "--json", str(path)]
        for flag in ("passes", "seconds"):
            if getattr(args, flag) is not None:
                command += [f"--{flag}", str(getattr(args, flag))]
        if args.smoke:
            command.append("--smoke")
        subprocess.run(command, check=True, stdout=sys.stderr)
        doc = json.loads(path.read_text())
        docs[name] = doc
        line = result_line(doc, args.trace)
        correct &= line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        for metric, value in line["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    return ({"workloads": docs},
            {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics})


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=42,
                        help="dataset and query-stream seed")
    parser.add_argument("--passes", type=int, default=None,
                        help="timed passes (default: per workload)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="size the timed passes to about this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: add a traced pass, report layers")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="users <= 4 and one pass (self-tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        doc, line = run_all(args)
    else:
        workload = WORKLOADS[args.workload]
        doc = run_workload(workload, args.seed, args.smoke, bool(args.trace),
                           passes=args.passes, seconds=args.seconds)
        print_report(doc)
        line = result_line(doc, bool(args.trace))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
