#!/usr/bin/env python3
"""Beyond the paper's testbed: the mechanism on a custom NUMA machine.

Everything in the library is parameterised by :class:`MachineConfig`, so
the mechanism can be studied on machines the paper never had.  This
script builds an 8-socket x 2-core box with a small L3 and slow
interconnect (a worst case for NUMA-oblivious scheduling), loads the
TPC-H database and compares the allocation modes on a concurrent scan
workload.

Run:  python examples/custom_machine.py
"""

from repro import MachineConfig, repeat_stream
from repro.analysis.report import render_table
from repro.experiments.common import build_system
from repro.units import gb_per_s, ghz, mib

EIGHT_SOCKET = MachineConfig(
    n_sockets=8,
    cores_per_socket=2,
    frequency_hz=ghz(2.0),
    l3_bytes=mib(2),
    dram_bandwidth=gb_per_s(4.0),
    ht_link_bandwidth=gb_per_s(4.0),
)


def run_one(mode: str | None) -> list:
    sut = build_system(engine="monetdb", mode=mode,
                       machine=EIGHT_SOCKET)
    sut.mark()
    result = sut.run_clients(12, repeat_stream("sel_45pct", 3))
    cores = (sut.controller.lonc_report().mean_cores
             if sut.controller else EIGHT_SOCKET.n_cores)
    return [sut.label, result.throughput, sut.ht_imc_ratio(),
            sut.delta("migrations"), cores]


def main() -> None:
    print(__doc__)
    rows = [run_one(mode) for mode in (None, "dense", "sparse",
                                       "adaptive")]
    print(render_table(
        ["config", "queries/s", "HT/IMC", "migrations", "mean cores"],
        rows,
        title=(f"45% scan, 12 clients on a "
               f"{EIGHT_SOCKET.n_sockets}x"
               f"{EIGHT_SOCKET.cores_per_socket} machine")))


if __name__ == "__main__":
    main()
