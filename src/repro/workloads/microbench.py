"""The hand-coded C version of TPC-H Q6 (paper §II-B).

The paper compares MonetDB's Volcano execution of Q6 against a pthreads C
program that scans only the four referenced columns with explicit thread
affinity.  Here the kernel is a set of plain work items over the lineitem
BAT pages — one slice per thread, no staged plan, no intermediates — with a
much lower cycles-per-byte cost than the interpreted engine (the paper's
"near-to-limit performance" baseline).

Affinity modes follow the paper: ``os`` leaves placement to the scheduler,
``dense`` pins every thread onto one node, ``sparse`` spreads the pins
round-robin across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.catalog import Table
from ..errors import WorkloadError
from ..opsys.system import OperatingSystem
from ..opsys.thread import SimThread
from ..opsys.workitem import ListWorkSource, WorkItem
from ..pages import PageSegments

#: columns the hand-coded kernel streams (Fig 3's C code)
Q6_COLUMNS = ("l_quantity", "l_extendedprice", "l_discount", "l_shipdate")

#: tight compiled loop: far cheaper per byte than the interpreted engine
C_CYCLES_PER_BYTE = 0.8

AFFINITIES = ("os", "dense", "sparse")


@dataclass
class MicrobenchResult:
    """Outcome of one microbenchmark run."""

    n_clients: int
    repetitions: int
    makespan: float
    queries_completed: int

    @property
    def throughput(self) -> float:
        """Completed kernel executions per second."""
        if self.makespan <= 0:
            return 0.0
        return self.queries_completed / self.makespan


class _Client:
    """One closed-loop client executing the kernel ``repetitions`` times."""

    def __init__(self, bench: "Q6Microbench", client_id: int):
        self.bench = bench
        self.client_id = client_id
        self.remaining = bench.repetitions
        self.live_threads = 0

    def start_run(self) -> None:
        self.remaining -= 1
        bench = self.bench
        n = bench.threads_per_client
        self.live_threads = n
        for t in range(n):
            # the thread's slice of each column, kept as four runs
            pages = PageSegments([bench.table.bat(column).page_slice(t, n)
                                  for column in Q6_COLUMNS])
            cycles = (len(pages) * bench.os.machine.memory.page_bytes
                      * C_CYCLES_PER_BYTE)
            source = ListWorkSource([WorkItem(
                "c.q6_scan", reads=pages, cycles=cycles,
                query_name="q6_c")])
            bench.os.spawn_thread(
                source, name=f"c{self.client_id}.t{t}",
                pinned_core=bench.pin_for(t),
                on_exit=self._thread_done)

    def _thread_done(self, thread: SimThread) -> None:
        self.live_threads -= 1
        if self.live_threads == 0:
            self.bench.completed += 1
            if self.remaining > 0:
                self.start_run()


class Q6Microbench:
    """Driver for the C-kernel runs of Fig 4."""

    def __init__(self, os: OperatingSystem, lineitem: Table,
                 n_clients: int, repetitions: int = 1,
                 threads_per_client: int = 4, affinity: str = "os"):
        if affinity not in AFFINITIES:
            raise WorkloadError(f"unknown affinity {affinity!r}")
        if n_clients < 1 or repetitions < 1 or threads_per_client < 1:
            raise WorkloadError("clients/reps/threads must be >= 1")
        for column in Q6_COLUMNS:
            if column not in lineitem:
                raise WorkloadError(f"lineitem lacks column {column!r}")
        self.os = os
        self.table = lineitem
        self.n_clients = n_clients
        self.repetitions = repetitions
        self.threads_per_client = threads_per_client
        self.affinity = affinity
        self.completed = 0

    def pin_for(self, thread_index: int) -> int | None:
        """Pinned core for a thread under the configured affinity."""
        topo = self.os.topology
        if self.affinity == "dense":
            cores = topo.cores_of_node(0)
            return cores[thread_index % len(cores)]
        if self.affinity == "sparse":
            node = thread_index % topo.n_sockets
            local = (thread_index // topo.n_sockets) \
                % topo.cores_per_socket
            return topo.core(node, local)
        return None

    def run(self) -> MicrobenchResult:
        """Run all clients to completion and report."""
        start = self.os.now
        for client_id in range(self.n_clients):
            _Client(self, client_id).start_run()
        self.os.run_until_idle()
        return MicrobenchResult(
            n_clients=self.n_clients,
            repetitions=self.repetitions,
            makespan=self.os.now - start,
            queries_completed=self.completed,
        )


def run_q6_kernel(os: OperatingSystem, lineitem: Table, n_clients: int,
                  repetitions: int = 1, threads_per_client: int = 4,
                  affinity: str = "os") -> MicrobenchResult:
    """Convenience wrapper: build and run a :class:`Q6Microbench`."""
    bench = Q6Microbench(os, lineitem, n_clients, repetitions,
                         threads_per_client, affinity)
    return bench.run()
