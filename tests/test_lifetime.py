"""A finished simulation is freed by reference counting alone.

The SMs' engine callbacks and the policy context hold weak proxies of the
engine, schedulers hold no reference to their SM, warps reach their
thread block through a weak reference and their scheduler through an
index, and a retired kernel's runtime is released.  So no object of a
run sits in a reference cycle, and a case run through the runners leaves
nothing behind even with the cyclic collector off: not the machine, and
not the thread blocks, warps and schedulers still resident when the run
ended.  One scenario runs one-warp thread blocks that end in a barrier
while TBs are evicted: there the releasing warp retires and removes its
block before the barrier's release loop, which must still reach it.

Patterns share their instruction objects, so a launch costs one tuple of
references, not one object per slot.
"""

import gc

import pytest

from repro.config import FAST_GPU
from repro.harness.runner import CaseRunner, make_policy
from repro.kernels import get_kernel
from repro.kernels.synthetic import barrier_kernel
from repro.serve.runner import ServeRunner, ServeSpec
from repro.sim.cache import Cache
from repro.sim.engine import GPUSimulator, LaunchedKernel
from repro.sim.kernel_runtime import KernelRuntime
from repro.sim.memory import MemorySubsystem
from repro.sim.scheduler import GTOScheduler, LRRScheduler
from repro.sim.sm import SM
from repro.sim.tb import ThreadBlock
from repro.sim.warp import Warp

RUN_TYPES = (GPUSimulator, SM, MemorySubsystem, Cache, KernelRuntime,
             ThreadBlock, Warp, GTOScheduler, LRRScheduler)

CYCLES = 4000


def corun(policy, names=("sgemm", "lbm"), telemetry=False):
    def run():
        runner = CaseRunner(FAST_GPU, CYCLES, telemetry=telemetry)
        return runner.run_case(names, (True, False), (0.6, None), policy)
    return run


def isolated():
    return CaseRunner(FAST_GPU, CYCLES).isolated_ipc("sgemm")


def barrier_evictions():
    # One-warp TBs whose program ends in a barrier, next to a QoS kernel
    # whose quota scheme evicts TBs.
    sim = GPUSimulator(FAST_GPU, [
        LaunchedKernel(get_kernel("sgemm"), is_qos=True, ipc_goal=50.0),
        LaunchedKernel(barrier_kernel(threads_per_tb=32)),
    ], make_policy("elastic"))
    sim.run(8000)
    return sim.result()


def served():
    spec = ServeSpec(process="poisson",
                     params=(("mean_interarrival_cycles", 3000.0),),
                     classes=(("rt", "mri-q", 8000, 4, 1.0),
                              ("bg", "sad", 16000, 4, 1.0)),
                     seed=0, horizon_cycles=40000)
    return ServeRunner(FAST_GPU).run_spec(spec)


SCENARIOS = {
    "rollover with telemetry": corun("rollover", telemetry=True),
    "spart (L1 flush)": corun("spart"),
    "naive with TB evictions": corun("naive", names=("mri-q", "spmv")),
    "one-warp barrier TBs with evictions": barrier_evictions,
    "isolated denominator": isolated,
    "served stream": served,
}


def tracked(types):
    return [obj for obj in gc.get_objects() if isinstance(obj, types)]


@pytest.fixture
def no_cyclic_gc(monkeypatch):
    """Turn the cyclic collector off; yield the count of thread blocks
    resident when each simulation's result was taken (its run's end)."""
    resident = []
    result = GPUSimulator.result

    def counting_result(sim):
        resident.append(sum(len(sm.tbs) for sm in sim.sms))
        return result(sim)

    monkeypatch.setattr(GPUSimulator, "result", counting_result)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield resident
    finally:
        if enabled:
            gc.enable()
        gc.collect()


@pytest.mark.parametrize("scenario", list(SCENARIOS), ids=list(SCENARIOS))
def test_finished_case_leaves_no_machine(no_cyclic_gc, scenario):
    known = {id(obj) for obj in tracked(RUN_TYPES)}
    outcome = SCENARIOS[scenario]()
    if "evictions" in scenario:
        assert outcome.evictions > 0
    if scenario == "one-warp barrier TBs with evictions":
        assert outcome.kernels[1].completed_tbs > 0
    left = sorted(type(obj).__name__ for obj in tracked(RUN_TYPES)
                  if id(obj) not in known)
    assert left == []
    # Not vacuous: the runs ended with thread blocks resident.
    assert sum(no_cyclic_gc) > 0


def test_retired_kernel_releases_its_runtime():
    sim = GPUSimulator(FAST_GPU, [], allow_empty=True)
    sim.launch_at(0, LaunchedKernel(get_kernel("mri-q"), grid_tbs=1))
    sim.launch_at(0, LaunchedKernel(get_kernel("sad")))
    sim.run(40000)
    assert sim.kernel_finish_cycle[0] is not None
    assert sim.runtimes[0] is None
    assert isinstance(sim.runtimes[1], KernelRuntime)


def test_launches_share_instruction_objects():
    memory = FAST_GPU.memory
    first = KernelRuntime(0, get_kernel("sgemm"), memory).program.pattern
    second = KernelRuntime(1, get_kernel("lbm"), memory).program.pattern
    assert set(first) & set(second)
    seen = {}
    for inst in first + second:
        assert seen.setdefault(inst, inst) is inst
