"""Tests for the SM issue path, EWS quota enforcement, and TB hosting."""

import pytest

from repro.config import GPUConfig, SMConfig
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim.kernel_runtime import KernelRuntime
from repro.sim.memory import MemorySubsystem
from repro.sim.sm import SM
from repro.sim.stats import KernelStats
from repro.sim.warp import WarpState


def alu_spec(name="sm-alu", ilp=1.0, iterations=2, body=10, barrier=False):
    return KernelSpec(
        name=name, threads_per_tb=64, regs_per_thread=8,
        mix=InstructionMix(alu=1.0, sfu=0.0, ldg=0.0, stg=0.0, lds=0.0,
                           barrier_per_iteration=barrier),
        memory=MemoryPattern(footprint_bytes=1 << 20),
        ilp=ilp, body_length=body, iterations_per_tb=iterations)


def memory_spec(name="sm-mem"):
    return KernelSpec(
        name=name, threads_per_tb=64, regs_per_thread=8,
        mix=InstructionMix(alu=0.0, sfu=0.0, ldg=1.0, stg=0.0, lds=0.0),
        memory=MemoryPattern(footprint_bytes=1 << 26, reuse_fraction=0.0),
        ilp=0.0, body_length=10, iterations_per_tb=2)


class Harness:
    """A single SM wired to stub callbacks for unit testing."""

    def __init__(self, specs, config=None):
        self.config = config or GPUConfig(num_sms=1, num_mcs=1,
                                          sm=SMConfig(warp_schedulers=2))
        self.memory = MemorySubsystem(self.config, len(specs))
        self.runtimes = [KernelRuntime(i, spec, self.config.memory)
                         for i, spec in enumerate(specs)]
        self.stats = [KernelStats() for _ in specs]
        self.exhausted_events = []
        self.finished_tbs = []
        self.sm = SM(0, self.config, self.runtimes, self.memory, self.stats,
                     self._on_exhausted, self._on_finished)

    def _on_exhausted(self, sm, kernel_idx, cycle):
        self.exhausted_events.append((kernel_idx, cycle))

    def _on_finished(self, sm, tb, cycle):
        self.finished_tbs.append(tb)
        sm.remove_tb(tb)

    def run(self, cycles, start=0):
        issued = 0
        for cycle in range(start, start + cycles):
            issued += self.sm.step(cycle)
        return issued


class TestDispatch:
    def test_dispatch_accounts_resources(self):
        harness = Harness([alu_spec()])
        tb = harness.sm.dispatch_tb(0, tb_id=0, cycle=0)
        assert harness.sm.resources.threads == 64
        assert harness.sm.tb_count[0] == 1
        assert len(tb.warps) == 2

    def test_warps_balanced_across_schedulers(self):
        harness = Harness([alu_spec()])
        harness.sm.dispatch_tb(0, 0, 0)
        harness.sm.dispatch_tb(0, 1, 0)
        counts = [len(s.warps) for s in harness.sm.schedulers]
        assert counts == [2, 2]

    def test_each_warp_names_the_scheduler_hosting_it(self):
        harness = Harness([alu_spec()])
        harness.sm.dispatch_tb(0, 0, 0)
        tb = harness.sm.dispatch_tb(0, 1, 0)
        assert [warp.sched for warp in tb.warps] == [0, 1]
        for warp in tb.warps:
            assert warp in harness.sm.schedulers[warp.sched].warps
            assert warp.tb() is tb

    def test_remove_tb_releases_everything(self):
        harness = Harness([alu_spec()])
        tb = harness.sm.dispatch_tb(0, 0, 0)
        harness.sm.remove_tb(tb)
        assert harness.sm.resources.threads == 0
        assert harness.sm.tb_count[0] == 0
        assert all(not s.warps for s in harness.sm.schedulers)


class TestIssue:
    def test_pure_alu_tb_completes(self):
        harness = Harness([alu_spec(ilp=1.0)])
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(200)
        assert len(harness.finished_tbs) == 1
        # 2 warps x 20 instructions x 32 lanes
        assert harness.stats[0].retired_thread_insts == 2 * 20 * 32

    def test_issue_rate_bounded_by_schedulers(self):
        harness = Harness([alu_spec(ilp=1.0, iterations=50, body=50)])
        harness.sm.dispatch_tb(0, 0, 0)
        harness.sm.dispatch_tb(0, 1, 0)
        issued = harness.run(20, start=1)
        assert issued <= 20 * 2  # two schedulers

    def test_dependent_alu_is_slower_than_independent(self):
        fast = Harness([alu_spec(name="fast", ilp=1.0, iterations=4)])
        slow = Harness([alu_spec(name="slow", ilp=0.0, iterations=4)])
        for harness in (fast, slow):
            harness.sm.dispatch_tb(0, 0, 0)
            harness.run(60)
        assert (fast.stats[0].retired_thread_insts
                > slow.stats[0].retired_thread_insts)

    def test_memory_kernel_generates_requests(self):
        harness = Harness([memory_spec()])
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(3000)
        assert harness.memory.kernel_stats[0].requests > 0

    def test_barrier_program_terminates(self):
        harness = Harness([alu_spec(barrier=True, iterations=2)])
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(500)
        assert len(harness.finished_tbs) == 1
        for scheduler in harness.sm.schedulers:
            assert not scheduler.warps


class TestQuotaEnforcement:
    def test_counter_decrements_by_lanes(self):
        harness = Harness([alu_spec()])
        harness.sm.quota_enabled = True
        harness.sm.set_quota(0, 1000.0)
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(5, start=1)
        retired = harness.stats[0].retired_thread_insts
        assert harness.sm.quota_counters[0] == 1000.0 - retired

    def test_exhaustion_throttles_and_fires_hook(self):
        harness = Harness([alu_spec(iterations=50)])
        harness.sm.quota_enabled = True
        harness.sm.set_quota(0, 64.0)
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(50, start=1)
        assert harness.exhausted_events
        assert harness.sm.quota_ok[0] is False
        retired = harness.stats[0].retired_thread_insts
        # Overrun bounded by one warp instruction per scheduler.
        assert retired <= 64 + 32 * len(harness.sm.schedulers)

    def test_refill_resumes_execution(self):
        harness = Harness([alu_spec(iterations=50)])
        harness.sm.quota_enabled = True
        harness.sm.set_quota(0, 64.0)
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(50, start=1)
        before = harness.stats[0].retired_thread_insts
        harness.sm.add_quota(0, 1e9)
        harness.run(50, start=51)
        assert harness.stats[0].retired_thread_insts > before

    def test_quota_disabled_never_throttles(self):
        harness = Harness([alu_spec(iterations=50)])
        harness.sm.set_quota(0, 1.0)
        harness.sm.dispatch_tb(0, 0, 0)
        harness.run(100, start=1)
        assert not harness.exhausted_events
        assert harness.stats[0].retired_thread_insts > 1000

    def test_all_exhausted(self):
        harness = Harness([alu_spec(), memory_spec()])
        harness.sm.quota_counters[0] = 0.0
        harness.sm.quota_counters[1] = 5.0
        assert harness.sm.all_exhausted([0]) is True
        assert harness.sm.all_exhausted([0, 1]) is False


class TestIdleSampling:
    def test_idle_warps_counted_for_oversubscribed_kernel(self):
        harness = Harness([alu_spec(ilp=1.0, iterations=50, body=50)])
        for tb_id in range(4):  # 8 warps on 2 schedulers
            harness.sm.dispatch_tb(0, tb_id, 0)
        for cycle in range(1, 30):
            harness.sm.step(cycle, sample=True)
        assert harness.sm.mean_idle_warps(0) > 0

    def test_reset_epoch_sampling(self):
        harness = Harness([alu_spec()])
        harness.sm.dispatch_tb(0, 0, 0)
        for cycle in range(1, 10):
            harness.sm.step(cycle, sample=True)
        harness.sm.reset_epoch_sampling()
        assert harness.sm.idle_samples == 0
        assert harness.sm.mean_idle_warps(0) == 0.0


class TestEvictionVictim:
    def test_picks_most_recent_live_tb(self):
        harness = Harness([alu_spec()])
        harness.sm.dispatch_tb(0, 0, 0)
        newest = harness.sm.dispatch_tb(0, 1, 0)
        assert harness.sm.pick_eviction_victim(0) is newest

    def test_skips_evicting_tbs(self):
        harness = Harness([alu_spec()])
        older = harness.sm.dispatch_tb(0, 0, 0)
        newer = harness.sm.dispatch_tb(0, 1, 0)
        newer.evicting = True
        assert harness.sm.pick_eviction_victim(0) is older

    def test_none_when_no_candidates(self):
        harness = Harness([alu_spec()])
        assert harness.sm.pick_eviction_victim(0) is None
