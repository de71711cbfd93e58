"""Simulated operating system: threads, scheduler, virtual memory, cpusets.

This package stands in for the Linux kernel facilities the paper relies on:

* the **CFS-style scheduler** with per-core run queues, periodic load
  balancing and task stealing (whose NUMA-obliviousness motivates the paper);
* the **node-local first-touch** memory policy and minor-fault accounting;
* **cpuset masks** (the cgroups role) through which the elastic mechanism
  hands cores to the OS.
"""

from .cpuset import CpuSet
from .inventory import DEFAULT_TENANT, CoreInventory
from .scheduler import Scheduler
from .system import OperatingSystem
from .thread import SimThread, ThreadState, WorkSource
from .vm import VirtualMemory
from .workitem import ListWorkSource, WorkItem

__all__ = [
    "WorkItem",
    "ListWorkSource",
    "SimThread",
    "ThreadState",
    "WorkSource",
    "CpuSet",
    "CoreInventory",
    "DEFAULT_TENANT",
    "VirtualMemory",
    "Scheduler",
    "OperatingSystem",
]
