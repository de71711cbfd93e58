"""Shared fixtures: small machines, operating systems, tiny datasets."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig, SchedulerConfig
from repro.hardware.prebuilt import opteron_8387, small_numa
from repro.opsys.system import OperatingSystem
from repro.workloads.tpch import build_queries, generate


@pytest.fixture
def small_config() -> MachineConfig:
    """A 2x2 machine with a tiny L3 (evictions within a handful of pages)."""
    return small_numa()


@pytest.fixture
def opteron_config() -> MachineConfig:
    """The paper's 4x4 Opteron."""
    return opteron_8387()


@pytest.fixture
def os_small(small_config) -> OperatingSystem:
    """A booted 2x2 machine."""
    return OperatingSystem(small_config)


@pytest.fixture
def os_opteron(opteron_config) -> OperatingSystem:
    """A booted 4x4 Opteron."""
    return OperatingSystem(opteron_config)


@pytest.fixture
def fast_scheduler() -> SchedulerConfig:
    """Scheduler with a short balance interval for balancing tests."""
    return SchedulerConfig(balance_interval=0.002)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A very small TPC-H dataset shared by the whole session."""
    return generate(scale=0.003, sim_scale=0.25, seed=7)


@pytest.fixture(scope="session")
def tiny_queries(tiny_dataset):
    """The 22 plans matching the tiny dataset's scale."""
    return build_queries(scale=tiny_dataset.scale)
