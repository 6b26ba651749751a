"""Differential tests: the event core vs the scan oracle.

The event core — ``GPUSimulator.run`` with its per-SM sleep skipping and
whole-GPU idle jumps — must produce record-for-record identical
:class:`SimulationResult`s, and identical idle-warp sampling state and
telemetry, to the scan oracle (the ``scan_oracle`` fixture: the same loop
with ``SM.wake_hint`` pinned to 0, stepping every SM every cycle), for
every sharing scheme plus the pid/mpc controllers and both scheduler
policies, and for a served workload that launches and retires kernels
mid-run.  ``TestGeneratedDifferential`` draws the machine, the kernels,
the policy and the window instead of picking them.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import GPUConfig, SMConfig
from repro.harness.runner import make_policy
from repro.kernels import synthetic
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy

SCHEMES = ["smk", "naive", "history", "elastic", "rollover",
           "rollover-time", "rollover-nostatic", "spart"]

#: All 8 sharing schemes plus the controller-backed quota policies.
SCHEMES_PLUS_CONTROLLERS = SCHEMES + ["pid", "mpc"]


def spec(name, **kwargs):
    defaults = dict(threads_per_tb=64, regs_per_thread=16,
                    body_length=16, iterations_per_tb=4,
                    memory=MemoryPattern(footprint_bytes=1 << 22))
    defaults.update(kwargs)
    return KernelSpec(name=name, **defaults)


def gpu_config(scheduler_policy):
    return GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                     idle_warp_samples=10,
                     sm=SMConfig(warp_schedulers=2),
                     scheduler_policy=scheduler_policy)


def two_kernel_launches():
    return [
        LaunchedKernel(spec("qos-k", mix=InstructionMix(
            alu=0.7, sfu=0.05, ldg=0.15, stg=0.05, lds=0.05)),
            is_qos=True, ipc_goal=40.0),
        LaunchedKernel(spec("bg-k", mix=InstructionMix(
            alu=0.3, sfu=0.0, ldg=0.55, stg=0.1, lds=0.05), ilp=0.2)),
    ]


def run_sim(scheme, scheduler_policy, cycles=2500):
    sim = GPUSimulator(gpu_config(scheduler_policy),
                       two_kernel_launches(), make_policy(scheme))
    sim.run(cycles)
    sampling = [(sm.idle_samples, tuple(sm.idle_sum)) for sm in sim.sms]
    return sim.result(), sampling


def assert_matches_oracle(scan_oracle, run, *args):
    """``run(*args)`` equals the same run under the oracle."""
    with scan_oracle():
        reference = run(*args)
    assert run(*args) == reference
    return reference


class TestRecordIdentical:
    """The event core must agree exactly with the scan oracle."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_gto(self, scheme, scan_oracle):
        assert_matches_oracle(scan_oracle, run_sim, scheme, "gto")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lrr(self, scheme, scan_oracle):
        assert_matches_oracle(scan_oracle, run_sim, scheme, "lrr")

    @pytest.mark.parametrize("scheme", ["pid", "mpc"])
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_controller_schemes(self, scheme, policy, scan_oracle):
        assert_matches_oracle(scan_oracle, run_sim, scheme, policy)

    def test_oracle_steps_every_sm_every_cycle(self, scan_oracle,
                                               monkeypatch):
        # The differentials above are only as strong as the oracle: it
        # must step every SM on every cycle, where the event core sleeps
        # through stalls.
        from repro.sim.sm import SM

        steps = []
        original = SM.step

        def counting_step(self, cycle, sample=False):
            steps.append(cycle)
            return original(self, cycle, sample)

        monkeypatch.setattr(SM, "step", counting_step)
        with scan_oracle():
            run_sim("rollover", "gto")
        assert len(steps) == 2 * 2500
        steps.clear()
        run_sim("rollover", "gto")
        assert 0 < len(steps) < 2 * 2500

    def test_oracle_pins_sleep_gate_and_idle_jumps(self, scan_oracle,
                                                  monkeypatch):
        # A memory-bound kernel leaves SMs asleep and the whole GPU idle
        # for stretches, so the run loop skips through both paths: the
        # per-SM gate on the cached wake-up and the idle jump.  Under the
        # oracle neither may skip: each SM steps exactly once per cycle.
        from repro.sim.sm import SM

        steps = []
        original = SM.step

        def counting_step(self, cycle, sample=False):
            steps.append((self.sm_id, cycle))
            return original(self, cycle, sample)

        monkeypatch.setattr(SM, "step", counting_step)
        cycles = 2000
        mem_spec = spec("m", mix=InstructionMix(
            alu=0.1, sfu=0.0, ldg=0.9, stg=0.0, lds=0.0), ilp=0.0)

        def run():
            GPUSimulator(gpu_config("gto"),
                         [LaunchedKernel(mem_spec)]).run(cycles)

        with scan_oracle():
            run()
        assert sorted(steps) == [(sm_id, cycle) for sm_id in range(2)
                                 for cycle in range(cycles)]
        steps.clear()
        run()
        assert 0 < len(steps) < 2 * cycles
        assert len({cycle for _sm_id, cycle in steps}) < cycles


class TestSleepSkipSampling:
    """Per-SM sleep skipping must not eat idle-warp samples: an SM the
    engine never steps still observes every epoch-anchored grid point."""

    def _counts(self):
        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                        idle_warp_samples=10,
                        sm=SMConfig(warp_schedulers=1))
        # Dependent-load-heavy kernel: long stalls put SM 0 to sleep
        # between bursts, engaging both the per-SM skip and the
        # whole-GPU idle skip.
        mem_spec = spec("m", mix=InstructionMix(
            alu=0.1, sfu=0.0, ldg=0.9, stg=0.0, lds=0.0), ilp=0.0)
        counts = []

        class Recorder(SharingPolicy):
            def setup(self, ctx):
                # Confine the kernel to SM 0; SM 1 stays empty and its
                # scheduler sleeps forever — the engine never steps it.
                ctx.set_tb_target(0, 0, 1)
                ctx.set_tb_target(1, 0, 0)

            def on_epoch_start(self, ctx, cycle, epoch_index):
                if epoch_index > 0:
                    counts.append([ctx.idle_samples(sm_id)
                                   for sm_id in range(ctx.num_sms)])

        sim = GPUSimulator(gpu, [LaunchedKernel(mem_spec)], Recorder())
        sim.run(5000)
        return counts

    def test_sleeping_sm_sees_every_sample(self):
        counts = self._counts()
        assert len(counts) >= 8
        # Epoch 0 misses the boundary sample (its grid starts one
        # interval into the run); every later epoch sees the full
        # idle_warp_samples on BOTH the busy and the never-stepped SM.
        assert counts[0] == [9, 9]
        for per_sm in counts[1:]:
            assert per_sm == [10, 10]

    def test_matches_scan_core(self, scan_oracle):
        assert_matches_oracle(scan_oracle, self._counts)


class TestTelemetryRecordIdentical:
    """Telemetry streams must be byte-identical to the scan oracle's: the
    sleep counters are defined from the issue trajectory, not from which
    cycles the run loop actually skipped."""

    @staticmethod
    def _records(scheme, scheduler_policy="gto"):
        from repro.sim import TelemetryRecorder
        sim = GPUSimulator(gpu_config(scheduler_policy),
                           two_kernel_launches(), make_policy(scheme),
                           telemetry=TelemetryRecorder())
        sim.run(2500)
        return sim.finalize_telemetry()

    @pytest.mark.parametrize("scheme", SCHEMES_PLUS_CONTROLLERS)
    def test_event_matches_scan(self, scheme, scan_oracle):
        for policy in ("gto", "lrr"):
            assert_matches_oracle(scan_oracle, self._records, scheme, policy)

    def test_sleep_counters_nonzero_somewhere(self):
        # The identity above must not hold vacuously: this workload does
        # leave SMs idle, so the counters have something to agree on.
        records = self._records("rollover")
        assert any(record.sleep_skipped_sm_cycles for record in records)


class TestServedWorkloadDifferential:
    """A served workload — mid-simulation ``launch_at`` plus finite-grid
    retire driven by the dispatcher — must replay record- and telemetry-
    identical on the event core and the scan oracle.  Arrival cycles bound
    the event core's sleep skips and idle jumps; this differential keeps
    that bound honest."""

    HORIZON = 14000

    @classmethod
    def _serve(cls):
        from repro.serve import Dispatcher, PoissonArrivals, RequestClass

        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                        idle_warp_samples=6,
                        sm=SMConfig(warp_schedulers=2))
        classes = (RequestClass("rt", "mri-q", slo_cycles=8000, grid_tbs=1),
                   RequestClass("bg", "sad", slo_cycles=16000, grid_tbs=2))
        requests = PoissonArrivals(classes, 1500.0,
                                   seed=5).generate(cls.HORIZON)
        dispatcher = Dispatcher(gpu, max_concurrent=2, telemetry=True)
        return dispatcher.serve(requests, cls.HORIZON)

    def test_three_core_identity(self, scan_oracle):
        base = assert_matches_oracle(scan_oracle, self._serve)
        # Non-vacuous: requests really were launched mid-run and retired
        # (freeing slots the queues refilled), and the machine really
        # slept between arrivals.
        assert base.generated >= 6
        assert base.completed >= 3
        assert base.sim_result is not None
        assert any(record.sleep_skipped_sm_cycles
                   for record in base.telemetry)


def generated_kernel(name):
    """A synthetic kernel, or a plain ``KernelSpec``, cut short so its TBs
    finish and redispatch inside the window, with a drawn TB size and the
    per-iteration barrier on or off.  A one-warp TB whose body ends in a
    barrier releases that barrier with its own last instruction."""
    bases = st.sampled_from((
        synthetic.compute_kernel(), synthetic.streaming_kernel(),
        synthetic.irregular_kernel(), synthetic.cache_resident_kernel(),
        synthetic.barrier_kernel(), spec("plain")))
    return st.builds(
        lambda base, threads, barrier, body, iterations: dataclasses.replace(
            base, name=name, threads_per_tb=threads,
            mix=dataclasses.replace(base.mix, barrier_per_iteration=barrier),
            body_length=body, iterations_per_tb=iterations),
        base=bases,
        threads=st.sampled_from((32, 64, 128)),
        barrier=st.booleans(),
        body=st.integers(6, 24),
        iterations=st.integers(1, 3))


@st.composite
def generated_runs(draw):
    policy = draw(st.sampled_from(("smk", "naive", "rollover", "spart",
                                   "pid")))
    # Spart partitions whole SMs: at least one per kernel.
    gpu = GPUConfig(num_sms=draw(st.integers(2 if policy == "spart" else 1,
                                             3)),
                    num_mcs=draw(st.integers(1, 2)),
                    epoch_length=draw(st.sampled_from((200, 300, 500))),
                    idle_warp_samples=draw(st.sampled_from((4, 10))),
                    sm=SMConfig(warp_schedulers=draw(st.integers(1, 2))),
                    scheduler_policy=draw(st.sampled_from(("gto", "lrr"))))
    specs = (draw(generated_kernel("gen-qos")),
             draw(generated_kernel("gen-bg")))
    goal = draw(st.sampled_from((10.0, 40.0, 120.0)))
    cycles = draw(st.integers(800, 2500))
    return gpu, specs, goal, policy, cycles


def run_generated(gpu, specs, goal, policy, cycles):
    sim = GPUSimulator(gpu, [LaunchedKernel(specs[0], is_qos=True,
                                            ipc_goal=goal),
                             LaunchedKernel(specs[1])], make_policy(policy))
    sim.run(cycles)
    sampling = [(sm.idle_samples, tuple(sm.idle_sum)) for sm in sim.sms]
    return sim.result(), sampling


class TestGeneratedDifferential:
    """The event core equals the scan oracle on drawn inputs: small
    machines, two synthetic kernels, a paper scheme, Spart or a PID
    controller, and a short window.  Seeded and derandomised, so every
    run draws the same examples."""

    # ``scan_oracle`` returns a context-manager factory and keeps no
    # state, so one instance serves every example; the oracle is entered
    # afresh in the body of each.
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=generated_runs())
    def test_event_core_matches_oracle(self, scan_oracle, run):
        assert_matches_oracle(scan_oracle, run_generated, *run)
