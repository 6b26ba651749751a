"""Tests for the kernel-fusion baseline and context-reset preemption."""

import pytest

from repro.config import GPUConfig, PreemptionConfig, SMConfig
from repro.kernels import get_kernel
from repro.kernels.fusion import fuse_kernels, fused_share
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy


class TestFuseKernels:
    def test_mix_blends_by_thread_ratio(self):
        sgemm, lbm = get_kernel("sgemm"), get_kernel("lbm")
        fused = fuse_kernels(sgemm, lbm, thread_ratio=0.5)
        expected_ldg = 0.5 * sgemm.mix.ldg + 0.5 * lbm.mix.ldg
        assert fused.mix.ldg == pytest.approx(expected_ldg)

    def test_static_resources_union(self):
        sgemm, lbm = get_kernel("sgemm"), get_kernel("lbm")
        fused = fuse_kernels(sgemm, lbm)
        assert fused.regs_per_thread == max(sgemm.regs_per_thread,
                                            lbm.regs_per_thread)
        assert fused.smem_per_tb_bytes == (sgemm.smem_per_tb_bytes
                                           + lbm.smem_per_tb_bytes)
        assert fused.threads_per_tb == max(sgemm.threads_per_tb,
                                           lbm.threads_per_tb)

    def test_register_pressure_reduces_occupancy(self):
        """Fusion's classic cost: the fused kernel fits fewer TBs than the
        lighter constituent did."""
        sgemm, lbm = get_kernel("sgemm"), get_kernel("lbm")
        fused = fuse_kernels(sgemm, lbm)
        sm = SMConfig()
        assert fused.max_tbs_per_sm(sm) <= min(sgemm.max_tbs_per_sm(sm),
                                               lbm.max_tbs_per_sm(sm))

    def test_barrier_survives_fusion(self):
        fused = fuse_kernels(get_kernel("sgemm"), get_kernel("lbm"))
        assert fused.mix.barrier_per_iteration  # sgemm's barrier

    def test_ratio_bounds(self):
        sgemm, lbm = get_kernel("sgemm"), get_kernel("lbm")
        with pytest.raises(ValueError):
            fuse_kernels(sgemm, lbm, thread_ratio=0.0)
        with pytest.raises(ValueError):
            fuse_kernels(sgemm, lbm, thread_ratio=1.0)

    def test_fused_kernel_is_runnable(self):
        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                        sm=SMConfig(warp_schedulers=2))
        fused = fuse_kernels(get_kernel("sgemm"), get_kernel("lbm"))
        sim = GPUSimulator(gpu, [LaunchedKernel(fused)])
        sim.run(3000)
        assert sim.result().kernels[0].retired_thread_insts > 0

    def test_fused_share_is_only_an_estimate(self):
        first, second = fused_share(100.0, 0.3)
        assert first == pytest.approx(30.0)
        assert second == pytest.approx(70.0)
        with pytest.raises(ValueError):
            fused_share(-1.0, 0.3)

    def test_default_name(self):
        fused = fuse_kernels(get_kernel("sgemm"), get_kernel("lbm"))
        assert "sgemm" in fused.name and "lbm" in fused.name

    def test_get_kernel_looks_up_the_default_name(self):
        fused = fuse_kernels(get_kernel("sgemm"), get_kernel("lbm"))
        assert get_kernel(fused.name) == fused
        with pytest.raises(ValueError, match="'nope'"):
            get_kernel("fused-sgemm+nope")


class TestContextReset:
    def _gpu(self, mode):
        return GPUConfig(num_sms=1, num_mcs=1, epoch_length=500,
                         sm=SMConfig(warp_schedulers=2),
                         preemption=PreemptionConfig(mode=mode))

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            PreemptionConfig(mode="drop")

    def test_reset_eviction_is_instant(self):
        config = PreemptionConfig(mode="reset")
        assert config.eviction_cycles(1 << 20) == 0

    def _evict_one(self, mode):
        sim = GPUSimulator(self._gpu(mode),
                           [LaunchedKernel(get_kernel("sgemm"))])
        sim.run(1000)  # let TBs make progress
        victim = sim.sms[0].pick_eviction_victim(0)
        sim.preemption.begin_eviction(sim.sms[0], victim, sim.cycle)
        return sim

    def test_reset_charges_wasted_work(self):
        sim = self._evict_one("reset")
        assert sim.preemption.wasted_thread_insts > 0
        assert sim.result().extra["wasted_thread_insts"] > 0

    def test_reset_charges_exactly_the_retired_work(self):
        """A divergent kernel's only TB, evicted mid-run, wastes exactly
        the thread instructions its warps retired."""

        class OneTB(SharingPolicy):
            def setup(self, ctx):
                ctx.set_tb_target(0, 0, 1)

        sim = GPUSimulator(self._gpu("reset"),
                           [LaunchedKernel(get_kernel("mri-gridding"))],
                           OneTB())
        sim.run(400)
        stats = sim.kernel_stats[0]
        assert stats.completed_tbs == 0
        victim = sim.sms[0].pick_eviction_victim(0)
        assert sim.sms[0].tbs == [victim]
        sim.preemption.begin_eviction(sim.sms[0], victim, sim.cycle)
        assert stats.retired_thread_insts > 0
        assert sim.preemption.wasted_thread_insts == stats.retired_thread_insts

    def test_save_mode_wastes_nothing(self):
        sim = self._evict_one("save")
        assert sim.preemption.wasted_thread_insts == 0
        assert sim.preemption.stall_cycles > 0

    def test_reset_has_no_stall_but_save_does(self):
        reset = self._evict_one("reset")
        save = self._evict_one("save")
        assert reset.preemption.stall_cycles == 0
        assert save.preemption.stall_cycles > 0
