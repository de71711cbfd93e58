"""repro — an elastic multi-core allocation mechanism for database systems.

A from-scratch Python reproduction of Dominico et al., "An Elastic
Multi-Core Allocation Mechanism for Database Systems" (ICDE 2018),
including every substrate the paper relies on:

* a discrete-event **NUMA machine** (sockets, shared L3s, memory banks,
  HyperTransport-style interconnect, hardware counters, energy model);
* a simulated **operating system** (CFS-style scheduler with load
  balancing and task stealing, first-touch virtual memory, cpusets);
* two **database engines** over a columnar executor with real numpy
  evaluation — an OS-scheduled Volcano engine (the MonetDB role) and a
  NUMA-aware partitioned engine (the SQL Server role);
* a synthetic **TPC-H** workload suite (generator plus all 22 queries);
* the paper's contribution: a **PetriNet-based elastic controller** with
  Sparse / Dense / Adaptive-Priority allocation modes and CPU-load or
  HT/IMC transition strategies.

Quick start::

    from repro import build_system, repeat_stream

    sut = build_system(engine="monetdb", mode="adaptive")
    result = sut.run_clients(16, repeat_stream("q6", 4))
    print(result.throughput, "queries/s on", sut.label)

See ``examples/`` for full scenarios and ``benchmarks/`` for the harnesses
that regenerate every figure of the paper's evaluation.
"""

from .config import (ControllerConfig, EngineConfig, MachineConfig,
                     SchedulerConfig)
from .core import (AdaptivePriorityMode, CpuLoadStrategy, DenseMode,
                   ElasticController, HtImcStrategy, NodePriorityQueue,
                   PerformanceModel, PetriNet, SparseMode, make_mode,
                   make_strategy)
from .db import (BAT, Catalog, ClientPool, DatabaseEngine, MonetDBLike,
                 NumaAwareEngine, Table, WorkloadResult)
from .db.clients import repeat_stream
from .errors import ReproError, VerificationError
from .experiments import SystemUnderTest, build_system
from .verify import VerificationReport, verify_performance_model
from .hardware import EnergyModel, Machine, Topology, opteron_8387
from .opsys import CpuSet, OperatingSystem, Scheduler
from .sim import Simulator, TraceRecorder
from .workloads.tpch import build_queries, generate

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "MachineConfig", "SchedulerConfig", "ControllerConfig", "EngineConfig",
    # hardware / OS substrate
    "Machine", "Topology", "EnergyModel", "opteron_8387",
    "OperatingSystem", "Scheduler", "CpuSet", "Simulator", "TraceRecorder",
    # database substrate
    "BAT", "Table", "Catalog", "DatabaseEngine", "MonetDBLike",
    "NumaAwareEngine", "ClientPool", "WorkloadResult", "repeat_stream",
    # workloads
    "generate", "build_queries",
    # the mechanism
    "PetriNet", "PerformanceModel", "ElasticController",
    "SparseMode", "DenseMode", "AdaptivePriorityMode", "NodePriorityQueue",
    "CpuLoadStrategy", "HtImcStrategy", "make_mode", "make_strategy",
    # experiment harness
    "build_system", "SystemUnderTest",
    # static verification
    "VerificationReport", "verify_performance_model",
    # errors
    "ReproError", "VerificationError",
]
