#!/usr/bin/env python3
"""Three engine architectures x the elastic mechanism.

Runs the same mixed TPC-H workload on the three simulated engines —

* ``monetdb``  — OS-scheduled Volcano (the paper's primary subject),
* ``sqlserver`` — NUMA-aware partitioned data with node-affined workers,
* ``morsel``   — HyPer-style dynamic morsel dispatch (§VI related work),

each with and without the adaptive controller, and prints the picture
that the paper's §VI discussion describes: the mechanism is orthogonal
to the engine's own thread/data placement strategy, with the largest
gains where placement is weakest.

Run:  python examples/engines_comparison.py [n_clients]
"""

import sys

from repro.analysis.report import render_table
from repro.experiments.common import build_system
from repro.workloads.phases import mixed_phases_stream


def run_one(engine: str, mode: str | None, n_clients: int) -> list:
    sut = build_system(engine=engine, mode=mode)
    sut.mark()
    result = sut.run_clients(n_clients, mixed_phases_stream(3))
    cores = (sut.controller.lonc_report().mean_cores
             if sut.controller else float(sut.os.topology.n_cores))
    return [sut.label, result.throughput, result.mean_latency(),
            sut.ht_imc_ratio(), sut.delta("migrations"), cores]


def main() -> None:
    n_clients = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    print(__doc__)
    rows = []
    for engine in ("monetdb", "sqlserver", "morsel"):
        for mode in (None, "adaptive"):
            rows.append(run_one(engine, mode, n_clients))
    print(render_table(
        ["config", "queries/s", "mean lat s", "HT/IMC", "migrations",
         "mean cores"],
        rows, title=f"mixed TPC-H, {n_clients} clients"))


if __name__ == "__main__":
    main()
