"""Tests for statistics containers and result objects."""

import pytest

from repro.sim.stats import KernelResult, KernelStats, SimulationResult


def kernel_result(name="k", ipc=10.0, goal=None, is_qos=False, retired=1000):
    return KernelResult(name=name, retired_thread_insts=retired, cycles=100,
                        completed_tbs=2, ipc=ipc, memory={"requests": 5},
                        ipc_goal=goal, is_qos=is_qos)


class TestKernelStats:
    def test_initial_zero(self):
        stats = KernelStats()
        assert stats.retired_thread_insts == 0


class TestKernelResult:
    def test_reached_none_for_nonqos(self):
        assert kernel_result().reached_goal is None

    def test_reached_true_at_goal(self):
        result = kernel_result(ipc=10.0, goal=10.0, is_qos=True)
        assert result.reached_goal is True

    def test_reached_tolerance(self):
        result = kernel_result(ipc=9.995, goal=10.0, is_qos=True)
        assert result.reached_goal is True
        result = kernel_result(ipc=9.9, goal=10.0, is_qos=True)
        assert result.reached_goal is False


class TestSimulationResult:
    def _result(self):
        return SimulationResult(
            cycles=100,
            kernels=[kernel_result("a", ipc=5.0), kernel_result("b", ipc=7.0)],
            memory_aggregate={"l1_hits": 1},
            epochs=3, evictions=0, eviction_stall_cycles=0)

    def test_kernel_lookup(self):
        result = self._result()
        assert result.kernel("b").ipc == 7.0

    def test_kernel_lookup_missing(self):
        with pytest.raises(KeyError):
            self._result().kernel("zzz")

    def test_total_ipc(self):
        assert self._result().total_ipc == pytest.approx(12.0)

    def test_extra_defaults_empty(self):
        assert self._result().extra == {}
