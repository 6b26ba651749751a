"""Shared fixtures for the test suite.

``tiny_gpu`` is deliberately small (2 SMs, 1 MC, 500-cycle epochs) so
integration tests run in milliseconds while still exercising multi-SM and
multi-scheduler paths.
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import FAST_GPU, GPUConfig, MemoryConfig, SMConfig
from repro.kernels import get_kernel
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim import GPUSimulator, LaunchedKernel


@pytest.fixture
def tiny_gpu() -> GPUConfig:
    return GPUConfig(
        num_sms=2,
        num_mcs=1,
        epoch_length=500,
        idle_warp_samples=10,
        sm=SMConfig(warp_schedulers=2),
        memory=MemoryConfig(l2_slice_size=128 * 1024),
    )


@pytest.fixture
def fast_gpu() -> GPUConfig:
    return FAST_GPU


@pytest.fixture
def compute_spec() -> KernelSpec:
    """A small compute-bound kernel for unit tests."""
    return KernelSpec(
        name="unit-compute",
        threads_per_tb=64,
        regs_per_thread=16,
        smem_per_tb_bytes=0,
        mix=InstructionMix(alu=0.9, sfu=0.0, ldg=0.05, stg=0.05, lds=0.0),
        memory=MemoryPattern(footprint_bytes=1024 * 1024),
        ilp=0.8,
        body_length=20,
        iterations_per_tb=3,
    )


@pytest.fixture
def memory_spec() -> KernelSpec:
    """A small memory-bound kernel for unit tests."""
    return KernelSpec(
        name="unit-memory",
        threads_per_tb=64,
        regs_per_thread=16,
        smem_per_tb_bytes=0,
        mix=InstructionMix(alu=0.4, sfu=0.0, ldg=0.45, stg=0.15, lds=0.0),
        memory=MemoryPattern(footprint_bytes=64 * 1024 * 1024,
                             coalesced_fraction=0.5, uncoalesced_degree=4,
                             reuse_fraction=0.05),
        ilp=0.3,
        body_length=20,
        iterations_per_tb=3,
        intensity="memory",
    )


@pytest.fixture
def barrier_spec() -> KernelSpec:
    """A kernel whose loop body ends in a TB-wide barrier."""
    return KernelSpec(
        name="unit-barrier",
        threads_per_tb=64,
        regs_per_thread=16,
        smem_per_tb_bytes=512,
        mix=InstructionMix(alu=0.8, sfu=0.0, ldg=0.1, stg=0.0, lds=0.1,
                           barrier_per_iteration=True),
        memory=MemoryPattern(footprint_bytes=1024 * 1024),
        body_length=12,
        iterations_per_tb=2,
    )


def run_isolated(spec: KernelSpec, gpu: GPUConfig, cycles: int = 4000):
    """Run one kernel alone; returns (simulator, result)."""
    sim = GPUSimulator(gpu, [LaunchedKernel(spec)])
    sim.run(cycles)
    return sim, sim.result()


@pytest.fixture
def parboil_sgemm() -> KernelSpec:
    return get_kernel("sgemm")


class _BrokenPool:
    """A process pool whose every task dies the way a killed worker's does."""

    def submit(self, function, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_exception(BrokenProcessPool("worker killed"))
        return future

    def map(self, function, *iterables, **kwargs):
        return (self.submit(function, *args).result()
                for args in zip(*iterables))

    def shutdown(self, *args, **kwargs):
        pass


@pytest.fixture(params=["refused", "broken"])
def unusable_pool(request, monkeypatch):
    """Make every process pool unusable: its construction raises OSError
    (``refused``, a sandbox without process spawning) or every task fails
    with BrokenProcessPool (``broken``).  Returns the list of pool
    construction attempts, so a test can tell a pool was really tried."""
    attempts = []

    def make_pool(*args, **kwargs):
        attempts.append(kwargs.get("max_workers"))
        if request.param == "refused":
            raise OSError("process spawning refused")
        return _BrokenPool()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make_pool)
    return attempts
