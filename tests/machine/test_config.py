"""Machine configuration validation and the paper's quoted ratios."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.machine.config import (
    MachineConfig,
    TimingParameters,
    ace_config,
    uniprocessor_config,
)


class TestTimingParameters:
    def test_defaults_are_the_papers_measurements(self):
        t = TimingParameters()
        assert t.local_fetch_us == 0.65
        assert t.local_store_us == 0.84
        assert t.global_fetch_us == 1.5
        assert t.global_store_us == 1.4

    def test_fetch_ratio_is_about_2_3(self):
        assert TimingParameters().fetch_ratio == pytest.approx(2.3, abs=0.02)

    def test_store_ratio_is_about_1_7(self):
        assert TimingParameters().store_ratio == pytest.approx(1.67, abs=0.02)

    def test_45_percent_store_mix_is_about_2(self):
        """Section 2.2: 'about 2 times slower for mixes that are 45% stores'."""
        assert TimingParameters().mix_ratio(0.45) == pytest.approx(2.0, abs=0.05)

    def test_mix_ratio_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            TimingParameters().mix_ratio(1.5)
        with pytest.raises(ConfigurationError):
            TimingParameters().mix_ratio(-0.1)

    def test_all_fetch_mix_equals_fetch_ratio(self):
        t = TimingParameters()
        assert t.mix_ratio(0.0) == pytest.approx(t.fetch_ratio)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(local_fetch_us=-1).validate()

    def test_rejects_global_faster_than_local(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(global_fetch_us=0.1).validate()
        with pytest.raises(ConfigurationError):
            TimingParameters(global_store_us=0.1).validate()

    def test_rejects_bad_bulk_factor(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(bulk_transfer_factor=0.0).validate()

    def test_rejects_nonpositive_remote_latency(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(remote_fetch_us=0.0).validate()
        with pytest.raises(ConfigurationError):
            TimingParameters(remote_store_us=-1.0).validate()

    def test_rejects_remote_faster_than_global(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(remote_fetch_us=1.0).validate()
        with pytest.raises(ConfigurationError):
            TimingParameters(remote_store_us=1.0).validate()

    def test_default_remote_ordering_is_valid(self):
        t = TimingParameters()
        t.validate()
        assert t.remote_fetch_us >= t.global_fetch_us
        assert t.remote_store_us >= t.global_store_us
        with pytest.raises(ConfigurationError):
            TimingParameters(bulk_transfer_factor=1.5).validate()

    def test_bulk_factor_of_one_is_allowed(self):
        TimingParameters(bulk_transfer_factor=1.0).validate()

    def test_rejects_negative_kernel_costs(self):
        with pytest.raises(ConfigurationError):
            TimingParameters(fault_overhead_us=-1).validate()
        with pytest.raises(ConfigurationError):
            TimingParameters(shootdown_us=-1).validate()

    @pytest.mark.parametrize(
        "name",
        [
            "local_fetch_us",
            "local_store_us",
            "global_fetch_us",
            "global_store_us",
            "remote_fetch_us",
            "remote_store_us",
            "fault_overhead_us",
            "mapping_op_us",
            "shootdown_us",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_costs(self, name, value):
        """A NaN or infinite price would pass the clocks' negative-time
        guard and silently poison every simulated time it touches."""
        with pytest.raises(ConfigurationError, match=name):
            dataclasses.replace(TimingParameters(), **{name: value}).validate()

    def test_zero_kernel_costs_are_allowed(self):
        TimingParameters(
            fault_overhead_us=0.0, mapping_op_us=0.0, shootdown_us=0.0
        ).validate()


class TestMachineConfig:
    def test_default_is_the_typical_large_prototype(self):
        config = MachineConfig()
        assert config.n_processors == 7
        assert config.local_bytes_per_cpu == 8 * 1024 * 1024
        assert config.global_bytes == 16 * 1024 * 1024

    def test_page_size_is_4k(self):
        assert MachineConfig().page_size_bytes == 4096

    def test_cpus_range(self):
        assert list(MachineConfig(n_processors=3).cpus) == [0, 1, 2]

    def test_backplane_limit_of_8_processors(self):
        """Nine slots, one for global memory: at most 8 processors."""
        MachineConfig(n_processors=8)
        with pytest.raises(ConfigurationError):
            MachineConfig(n_processors=9)

    def test_backplane_limit_can_be_lifted(self):
        config = MachineConfig(n_processors=16, enforce_backplane=False)
        assert config.n_processors == 16

    def test_rejects_zero_processors(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(n_processors=0)

    def test_rejects_empty_memories(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(local_pages_per_cpu=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(global_pages=0)

    def test_rejects_zero_page_size(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(page_size_words=0)

    def test_scaled_replaces_fields(self):
        config = MachineConfig().scaled(n_processors=2, global_pages=10)
        assert config.n_processors == 2
        assert config.global_pages == 10
        assert config.local_pages_per_cpu == MachineConfig().local_pages_per_cpu

    def test_ace_config_factory(self):
        assert ace_config().n_processors == 7
        assert ace_config(3).n_processors == 3
        assert ace_config(3, global_pages=7).global_pages == 7

    def test_uniprocessor_config(self):
        assert uniprocessor_config().n_processors == 1
