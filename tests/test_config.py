"""Tests for machine configurations, including the Table 1 check."""

import pytest

from repro.config import (
    FAST_GPU,
    GPUConfig,
    LatencyConfig,
    MemoryConfig,
    PAPER_GPU,
    PASCAL56_GPU,
    PreemptionConfig,
    SMConfig,
    preset,
)


class TestTable1:
    """PAPER_GPU must match Table 1 of the paper exactly."""

    def test_core_frequency(self):
        assert PAPER_GPU.core_freq_mhz == 1216.0

    def test_memory_frequency(self):
        assert PAPER_GPU.mem_freq_mhz == 7000.0

    def test_sm_count(self):
        assert PAPER_GPU.num_sms == 16

    def test_mc_count(self):
        assert PAPER_GPU.num_mcs == 4

    def test_scheduler_policy_is_gto(self):
        assert PAPER_GPU.scheduler_policy == "gto"

    def test_register_file(self):
        assert PAPER_GPU.sm.registers_bytes == 256 * 1024

    def test_shared_memory(self):
        assert PAPER_GPU.sm.shared_memory_bytes == 96 * 1024

    def test_thread_limit(self):
        assert PAPER_GPU.sm.max_threads == 2048

    def test_tb_limit(self):
        assert PAPER_GPU.sm.max_tbs == 32

    def test_warp_schedulers(self):
        assert PAPER_GPU.sm.warp_schedulers == 4

    def test_epoch_length_matches_section_41(self):
        assert PAPER_GPU.epoch_length == 10_000

    def test_idle_warp_samples_matches_section_41(self):
        assert PAPER_GPU.idle_warp_samples == 100


class TestPascal56:
    """Section 4.6: 56 SMs with two warp schedulers, rest as Table 1."""

    def test_sm_count(self):
        assert PASCAL56_GPU.num_sms == 56

    def test_two_warp_schedulers(self):
        assert PASCAL56_GPU.sm.warp_schedulers == 2

    def test_other_parameters_unchanged(self):
        assert PASCAL56_GPU.sm.max_threads == PAPER_GPU.sm.max_threads
        assert PASCAL56_GPU.num_mcs == PAPER_GPU.num_mcs


class TestFastPreset:
    def test_preserves_sm_to_mc_ratio(self):
        assert (FAST_GPU.num_sms / FAST_GPU.num_mcs
                == PAPER_GPU.num_sms / PAPER_GPU.num_mcs)

    def test_keeps_per_sm_shape(self):
        assert FAST_GPU.sm.warp_schedulers == PAPER_GPU.sm.warp_schedulers
        assert FAST_GPU.sm.max_threads == PAPER_GPU.sm.max_threads


class TestValidation:
    def test_rejects_zero_sms(self):
        with pytest.raises(ValueError):
            GPUConfig(num_sms=0)

    def test_rejects_zero_mcs(self):
        with pytest.raises(ValueError):
            GPUConfig(num_mcs=0)

    def test_rejects_bad_scheduler(self):
        with pytest.raises(ValueError):
            GPUConfig(scheduler_policy="fifo")

    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ValueError):
            GPUConfig(epoch_length=0)

    def test_scaled_returns_modified_copy(self):
        modified = PAPER_GPU.scaled(num_sms=8)
        assert modified.num_sms == 8
        assert PAPER_GPU.num_sms == 16
        assert modified.sm == PAPER_GPU.sm


class TestSMConfig:
    def test_max_warps(self):
        assert SMConfig().max_warps == 64

    def test_max_warps_scales_with_threads(self):
        assert SMConfig(max_threads=1024).max_warps == 32


class TestPreemptionConfig:
    def test_eviction_cost_scales_with_context(self):
        config = PreemptionConfig(drain_cycles=100, bytes_per_cycle=128)
        assert config.eviction_cycles(0) == 100
        assert config.eviction_cycles(1280) == 110

    def test_disabled_preemption_is_free(self):
        config = PreemptionConfig(enabled=False)
        assert config.eviction_cycles(1 << 20) == 0


class TestPresetLookup:
    def test_known_presets(self):
        assert preset("paper") is PAPER_GPU
        assert preset("pascal56") is PASCAL56_GPU
        assert preset("fast") is FAST_GPU

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("turbo")


class TestLatencyConfig:
    def test_memory_hierarchy_latencies_increase(self):
        lat = LatencyConfig()
        assert lat.alu < lat.l1_hit < lat.l2_hit < lat.dram

    def test_defaults_positive(self):
        lat = LatencyConfig()
        for field in ("alu", "sfu", "shared_mem", "l1_hit", "l2_hit",
                      "dram", "interconnect"):
            assert getattr(lat, field) > 0


class TestMemoryConfig:
    def test_default_line_size(self):
        assert MemoryConfig().line_size == 128

    def test_caches_fit_geometry(self):
        mem = MemoryConfig()
        assert mem.l1_size % (mem.l1_assoc * mem.line_size) == 0
        assert mem.l2_slice_size % (mem.l2_assoc * mem.line_size) == 0


class TestConfigRoundTrip:
    """asdict -> gpu_config_from_dict must be lossless (resume depends on
    rebuilding the exact machine from the experiment store's grid)."""

    def test_round_trip_every_preset(self):
        import dataclasses

        from repro.config import gpu_config_from_dict

        for gpu in (PAPER_GPU, PASCAL56_GPU, FAST_GPU):
            rebuilt = gpu_config_from_dict(dataclasses.asdict(gpu))
            assert rebuilt == gpu

    def test_round_trip_non_default_machine(self):
        import dataclasses

        from repro.config import gpu_config_from_dict

        gpu = FAST_GPU.scaled(num_sms=2)
        assert gpu_config_from_dict(dataclasses.asdict(gpu)) == gpu

    def test_unknown_keys_fail_loudly(self):
        import dataclasses

        from repro.config import gpu_config_from_dict

        payload = dataclasses.asdict(FAST_GPU)
        payload["warp_width"] = 64
        with pytest.raises(TypeError):
            gpu_config_from_dict(payload)
