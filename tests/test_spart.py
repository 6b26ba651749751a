"""Tests for the Spart spatial-partitioning baseline."""

import pytest

from repro.config import GPUConfig, SMConfig
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.baselines import SpartPolicy
from repro.sim import GPUSimulator, LaunchedKernel


def spec(name):
    return KernelSpec(
        name=name, threads_per_tb=64, regs_per_thread=16,
        mix=InstructionMix(alu=0.85, sfu=0.0, ldg=0.1, stg=0.05, lds=0.0),
        memory=MemoryPattern(footprint_bytes=1 << 22),
        ilp=0.8, body_length=16, iterations_per_tb=3)


def make_sim(goal, num_sms=4, policy=None, kernels=2):
    """A QoS kernel with ``goal`` (a plain kernel when None) and plain
    co-runners."""
    gpu = GPUConfig(num_sms=num_sms, num_mcs=1, epoch_length=500,
                    idle_warp_samples=10, sm=SMConfig(warp_schedulers=2))
    launches = [LaunchedKernel(spec("plain-a")) if goal is None else
                LaunchedKernel(spec("qos-a"), is_qos=True, ipc_goal=goal)]
    launches.append(LaunchedKernel(spec("plain-b")))
    if kernels == 3:
        launches.append(LaunchedKernel(spec("plain-c")))
    return GPUSimulator(gpu, launches, policy or SpartPolicy())


class TestInitialPartition:
    def test_sms_split_evenly(self):
        policy = SpartPolicy()
        sim = make_sim(goal=10.0, num_sms=4, policy=policy)
        sim.setup()
        assert policy.sm_count(0) == 2
        assert policy.sm_count(1) == 2

    def test_leftover_sms_go_to_qos(self):
        policy = SpartPolicy()
        sim = make_sim(goal=10.0, num_sms=5, policy=policy)
        sim.setup()
        assert policy.sm_count(0) == 3
        assert policy.sm_count(1) == 2

    def test_partitions_are_exclusive(self):
        policy = SpartPolicy()
        sim = make_sim(goal=10.0, num_sms=4, policy=policy)
        sim.setup()
        for sm in sim.sms:
            resident = [k for k in range(sim.num_kernels)
                        if sm.tb_count[k] > 0]
            assert len(resident) == 1
            assert resident[0] == policy.owner[sm.sm_id]

    def test_more_kernels_than_sms_rejected(self):
        gpu = GPUConfig(num_sms=1, num_mcs=1)
        launches = [LaunchedKernel(spec("a"), is_qos=True, ipc_goal=1.0),
                    LaunchedKernel(spec("b"))]
        sim = GPUSimulator(gpu, launches, SpartPolicy())
        with pytest.raises(ValueError):
            sim.setup()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SpartPolicy(adjust_interval=0)

    def test_no_quotas(self):
        policy = SpartPolicy()
        sim = make_sim(goal=10.0, policy=policy)
        sim.setup()
        assert all(not sm.quota_enabled for sm in sim.sms)


class TestHillClimbing:
    def test_lagging_qos_kernel_steals_sms(self):
        policy = SpartPolicy()
        sim = make_sim(goal=1e6, policy=policy)  # unreachable goal
        sim.run(4000)
        # Non-QoS partition is drained toward the QoS kernel.
        assert policy.sm_count(0) > policy.sm_count(1)
        assert policy.moves > 0

    def test_overachieving_qos_kernel_gives_back(self):
        policy = SpartPolicy()
        sim = make_sim(goal=0.5, policy=policy)  # trivially easy goal
        sim.run(6000)
        assert policy.sm_count(1) > policy.sm_count(0)

    def test_no_qos_kernel_keeps_the_even_split(self):
        # With no goal to chase the hill climber never moves: a pair with
        # no QoS kernel measures pure partitioning.
        policy = SpartPolicy()
        sim = make_sim(goal=None, policy=policy)
        sim.run(6000)
        assert policy.moves == 0
        assert (policy.sm_count(0), policy.sm_count(1)) == (2, 2)

    def test_partition_always_covers_all_sms(self):
        policy = SpartPolicy()
        sim = make_sim(goal=100.0, policy=policy)
        sim.run(5000)
        assert len(policy.owner) == sim.config.num_sms
        assert policy.sm_count(0) + policy.sm_count(1) == sim.config.num_sms

    def test_transfer_repartitions_residency(self):
        policy = SpartPolicy()
        sim = make_sim(goal=1e6, policy=policy)
        sim.run(6000)
        # After stabilising, residency must agree with ownership.
        for sm in sim.sms:
            owner = policy.owner[sm.sm_id]
            for kernel_idx in range(sim.num_kernels):
                live = [tb for tb in sm.tbs
                        if tb.kernel_idx == kernel_idx and not tb.evicting]
                if kernel_idx != owner:
                    # Losers may still be draining, but get no fresh TBs.
                    assert sim.tb_targets[sm.sm_id][kernel_idx] == 0
                else:
                    assert live or sim.preemption.has_pending

    def test_moves_cost_preemptions(self):
        policy = SpartPolicy()
        sim = make_sim(goal=1e6, policy=policy)
        sim.run(4000)
        assert sim.result().evictions > 0


class TestTrioPartition:
    def test_three_kernels_on_six_sms(self):
        policy = SpartPolicy()
        gpu = GPUConfig(num_sms=6, num_mcs=1, epoch_length=500)
        launches = [
            LaunchedKernel(spec("q1"), is_qos=True, ipc_goal=10.0),
            LaunchedKernel(spec("n1")),
            LaunchedKernel(spec("n2")),
        ]
        sim = GPUSimulator(gpu, launches, policy)
        sim.setup()
        assert [policy.sm_count(i) for i in range(3)] == [2, 2, 2]
