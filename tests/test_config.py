"""Configuration dataclasses: defaults, derived values, validation."""

import pytest

from repro.config import (ControllerConfig, EngineConfig, MachineConfig,
                          SchedulerConfig)
from repro.errors import ConfigError


class TestMachineConfig:
    def test_defaults_match_the_paper_testbed(self):
        config = MachineConfig()
        assert config.n_sockets == 4
        assert config.cores_per_socket == 4
        assert config.n_cores == 16
        assert config.frequency_hz == pytest.approx(2.8e9)

    def test_l3_pages_derived(self):
        config = MachineConfig()
        assert config.l3_pages == config.l3_bytes // config.page_bytes
        assert config.l3_pages >= 1

    def test_rejects_zero_sockets(self):
        with pytest.raises(ConfigError):
            MachineConfig(n_sockets=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            MachineConfig(cores_per_socket=0)

    def test_rejects_non_power_of_two_pages(self):
        with pytest.raises(ConfigError):
            MachineConfig(page_bytes=3000)

    def test_rejects_l3_smaller_than_a_page(self):
        with pytest.raises(ConfigError):
            MachineConfig(l3_bytes=1024, page_bytes=65536)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ConfigError):
            MachineConfig(frequency_hz=0)

    def test_rejects_bad_idle_fraction(self):
        with pytest.raises(ConfigError):
            MachineConfig(idle_power_fraction=1.5)


class TestSchedulerConfig:
    def test_defaults_positive(self):
        config = SchedulerConfig()
        assert config.quantum > 0
        assert config.balance_interval > 0
        assert config.imbalance_threshold >= 1

    @pytest.mark.parametrize("field,value", [
        ("quantum", 0), ("balance_interval", -1),
        ("imbalance_threshold", 0), ("migration_cost", -0.1),
        ("minor_fault_cost", -1e-9), ("context_switch_cost", -1e-9),
    ])
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ConfigError):
            SchedulerConfig(**{field: value})


class TestControllerConfig:
    def test_paper_defaults(self):
        config = ControllerConfig()
        assert config.initial_cores == 1
        assert config.min_cores == 1

    def test_thresholds_live_on_the_strategy(self):
        # one source of truth: the strategy owns th_min/th_max and the
        # config deliberately has no such fields to fall out of sync with
        assert not hasattr(ControllerConfig(), "th_min")
        assert not hasattr(ControllerConfig(), "th_max")

    def test_rejects_zero_interval(self):
        with pytest.raises(ConfigError):
            ControllerConfig(interval=0)

    def test_rejects_initial_below_min(self):
        with pytest.raises(ConfigError):
            ControllerConfig(initial_cores=1, min_cores=2)


class TestEngineAndExperiment:
    def test_engine_defaults(self):
        config = EngineConfig()
        assert config.workers_follow_mask is True
        assert config.loader_node == 0
