#!/usr/bin/env python3
"""Quickstart: the elastic mechanism vs the plain OS scheduler on TPC-H Q6.

Builds two identical simulated systems — a 4-node Opteron running the
MonetDB-like engine over a synthetic TPC-H database — and runs the same
16-client Q6 workload on both.  One system exposes all 16 cores to the OS
(the baseline); the other runs the paper's adaptive-priority controller,
which hands cores to the OS one at a time based on the PetriNet
performance model and the data's NUMA placement.

Run:  python examples/quickstart.py [--telemetry DIR]

With ``--telemetry DIR`` the run records runtime telemetry and exports
it to DIR — open ``DIR/trace.json`` in Perfetto, or inspect it with
``python -m repro stats DIR`` / ``python -m repro explain DIR``.
"""

import argparse

from repro import build_system, repeat_stream
from repro.analysis.report import render_table

N_CLIENTS = 16
REPETITIONS = 3


def run_one(mode: str | None) -> dict:
    """Run the workload on one configuration and collect the headline
    counters."""
    sut = build_system(engine="monetdb", mode=mode)
    sut.mark()
    result = sut.run_clients(N_CLIENTS, repeat_stream("q6", REPETITIONS))
    row = {
        "config": sut.label,
        "throughput q/s": result.throughput,
        "mean latency s": result.mean_latency(),
        "HT/IMC ratio": sut.ht_imc_ratio(),
        "migrations": sut.delta("migrations"),
        "stolen tasks": sut.delta("stolen_tasks"),
    }
    if sut.controller is not None:
        row["mean cores"] = sut.controller.lonc_report().mean_cores
    else:
        row["mean cores"] = 16.0
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="record telemetry and export it to DIR")
    args = parser.parse_args()
    print(__doc__)
    if args.telemetry is not None:
        from repro.obs import Recorder, export_run, install, uninstall

        recorder = install(Recorder())
        try:
            rows = [run_one(None), run_one("adaptive")]
        finally:
            uninstall()
        for path in export_run(recorder, args.telemetry).values():
            print(f"telemetry: {path}")
    else:
        rows = [run_one(None), run_one("adaptive")]
    headers = list(rows[0])
    print(render_table(headers, [[r[h] for h in headers] for r in rows],
                       title=f"Q6, {N_CLIENTS} concurrent clients"))
    baseline, adaptive = rows
    ratio_cut = baseline["HT/IMC ratio"] / max(adaptive["HT/IMC ratio"],
                                               1e-9)
    print()
    print(f"adaptive mode moved {ratio_cut:.2f}x less data over the "
          f"interconnect per memory byte served,")
    print(f"with {baseline['migrations'] - adaptive['migrations']:.0f} "
          f"fewer thread migrations.")


if __name__ == "__main__":
    main()
