"""Differential tests: the engine cores vs the scan oracle.

Both cores in ``ENGINE_CORES`` must produce record-for-record identical
:class:`SimulationResult`s — and identical idle-warp sampling state and
telemetry — to the scan oracle (the ``scan_oracle`` fixture: the run loop
with ``SM.wake_hint`` pinned to 0, stepping every SM every cycle), for
every sharing scheme plus the pid/mpc controllers and both scheduler
policies:

* the **event** core (per-SM sleep skipping and whole-GPU idle jumps), and
* the **batch** core (windowed struct-of-arrays advancement in
  :mod:`repro.sim.batch`, dropping to the scalar path on control-flow
  edges).

The batch-specific classes at the bottom force the scalar fallback *mid
run* — preemption-driven TB moves and quota exhaustion between vectorised
windows — and check the windows actually opened, so the identity is not
vacuous.
"""

import pytest

from repro.config import ENGINE_CORES, GPUConfig, SMConfig
from repro.harness.runner import make_policy
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.sim import GPUSimulator, LaunchedKernel, SharingPolicy

SCHEMES = ["smk", "naive", "history", "elastic", "rollover",
           "rollover-time", "rollover-nostatic", "spart"]

#: The scheme set the batch differential runs: all 8 sharing schemes plus
#: the controller-backed quota policies.
SCHEMES_PLUS_CONTROLLERS = SCHEMES + ["pid", "mpc"]


def spec(name, **kwargs):
    defaults = dict(threads_per_tb=64, regs_per_thread=16,
                    body_length=16, iterations_per_tb=4,
                    memory=MemoryPattern(footprint_bytes=1 << 22))
    defaults.update(kwargs)
    return KernelSpec(name=name, **defaults)


def gpu_config(core, scheduler_policy):
    return GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                     idle_warp_samples=10,
                     sm=SMConfig(warp_schedulers=2),
                     engine_core=core,
                     scheduler_policy=scheduler_policy)


def two_kernel_launches():
    return [
        LaunchedKernel(spec("qos-k", mix=InstructionMix(
            alu=0.7, sfu=0.05, ldg=0.15, stg=0.05, lds=0.05)),
            is_qos=True, ipc_goal=40.0),
        LaunchedKernel(spec("bg-k", mix=InstructionMix(
            alu=0.3, sfu=0.0, ldg=0.55, stg=0.1, lds=0.05), ilp=0.2)),
    ]


def run_sim(core, scheme, scheduler_policy, cycles=2500):
    sim = GPUSimulator(gpu_config(core, scheduler_policy),
                       two_kernel_launches(), make_policy(scheme))
    sim.run(cycles)
    sampling = [(sm.idle_samples, tuple(sm.idle_sum)) for sm in sim.sms]
    return sim.result(), sampling


def assert_cores_match_oracle(scan_oracle, run, *args):
    """``run(core, *args)`` on every engine core equals its oracle run."""
    with scan_oracle():
        reference = run("event", *args)
    for core in ENGINE_CORES:
        assert run(core, *args) == reference, core
    return reference


class TestRecordIdentical:
    """Every engine core must agree exactly with the scan oracle."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_gto(self, scheme, scan_oracle):
        assert_cores_match_oracle(scan_oracle, run_sim, scheme, "gto")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lrr(self, scheme, scan_oracle):
        assert_cores_match_oracle(scan_oracle, run_sim, scheme, "lrr")

    @pytest.mark.parametrize("scheme", ["pid", "mpc"])
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_controller_schemes(self, scheme, policy, scan_oracle):
        assert_cores_match_oracle(scan_oracle, run_sim, scheme, policy)

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
            run_sim("event", "rollover", "gto")
        assert len(steps) == 2 * 2500
        steps.clear()
        run_sim("event", "rollover", "gto")
        assert 0 < len(steps) < 2 * 2500


class TestSleepSkipSampling:
    """Per-SM sleep skipping must not eat idle-warp samples: an SM the
    engine never steps still observes every epoch-anchored grid point."""

    def _counts(self, core):
        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=500,
                        idle_warp_samples=10,
                        sm=SMConfig(warp_schedulers=1),
                        engine_core=core)
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
        counts = self._counts("event")
        assert len(counts) >= 8
        # Epoch 0 misses the boundary sample (its grid starts one
        # interval into the run); every later epoch sees the full
        # idle_warp_samples on BOTH the busy and the never-stepped SM.
        assert counts[0] == [9, 9]
        for per_sm in counts[1:]:
            assert per_sm == [10, 10]

    @pytest.mark.parametrize("core", ENGINE_CORES)
    def test_matches_scan_core(self, core, scan_oracle):
        with scan_oracle():
            reference = self._counts("event")
        assert self._counts(core) == reference


class TestTelemetryRecordIdentical:
    """Telemetry streams must be byte-identical to the scan oracle's: the
    sleep counters are defined from the issue trajectory, not from which
    cycles a particular core actually skipped or batched."""

    @staticmethod
    def _records(core, scheme, scheduler_policy="gto"):
        from repro.sim import TelemetryRecorder
        sim = GPUSimulator(gpu_config(core, scheduler_policy),
                           two_kernel_launches(), make_policy(scheme),
                           telemetry=TelemetryRecorder())
        sim.run(2500)
        return sim.finalize_telemetry()

    def _assert_matches_oracle(self, scan_oracle, core, scheme):
        for policy in ("gto", "lrr"):
            with scan_oracle():
                reference = self._records("event", scheme, policy)
            assert self._records(core, scheme, policy) == reference

    @pytest.mark.parametrize("scheme", SCHEMES_PLUS_CONTROLLERS)
    def test_event_matches_scan(self, scheme, scan_oracle):
        self._assert_matches_oracle(scan_oracle, "event", scheme)

    @pytest.mark.parametrize("scheme", SCHEMES_PLUS_CONTROLLERS)
    def test_batch_matches_scan(self, scheme, scan_oracle):
        self._assert_matches_oracle(scan_oracle, "batch", scheme)

    def test_sleep_counters_nonzero_somewhere(self):
        # The identity above must not hold vacuously: this workload does
        # leave SMs idle, so the counters have something to agree on.
        records = self._records("event", "rollover")
        assert any(record.sleep_skipped_sm_cycles for record in records)


class TestBatchScalarFallback:
    """Edge cases that force the batch core off its vectorised path mid
    run: preemption-driven TB moves between windows, and quota exhaustion
    landing on the scalar path.  Each case asserts both identity with the
    event core AND that vectorised windows actually opened, so the
    differential exercises real window/fallback transitions rather than
    degenerating to the pure event loop."""

    @staticmethod
    def _compute_spec(name):
        # Memory-free and high-ILP: windows open wide whenever the policy
        # machinery leaves the SMs alone.
        return KernelSpec(name=name, threads_per_tb=64, regs_per_thread=16,
                          body_length=64, iterations_per_tb=32,
                          mix=InstructionMix(alu=0.9, sfu=0.0, ldg=0.0,
                                             stg=0.0, lds=0.1),
                          ilp=0.95,
                          memory=MemoryPattern(footprint_bytes=1 << 20))

    class _Shuffler(SharingPolicy):
        """Bounces a kernel's TBs between the two SMs every other epoch,
        driving evictions (partial context switch) and redispatches."""

        def setup(self, ctx):
            ctx.set_tb_target(0, 0, 2)
            ctx.set_tb_target(1, 0, 2)
            ctx.set_tb_target(0, 1, 1)
            ctx.set_tb_target(1, 1, 1)

        def on_epoch_start(self, ctx, cycle, epoch_index):
            lopsided = epoch_index % 2 == 1
            ctx.set_tb_target(0, 0, 4 if lopsided else 2)
            ctx.set_tb_target(1, 0, 0 if lopsided else 2)

    def _run(self, core, with_windows):
        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                        idle_warp_samples=6,
                        sm=SMConfig(warp_schedulers=2),
                        engine_core=core)
        launches = [
            LaunchedKernel(self._compute_spec("qos-k"), is_qos=True,
                           ipc_goal=30.0),
            LaunchedKernel(self._compute_spec("bg-k")),
        ]
        sim = GPUSimulator(gpu, launches, self._Shuffler())
        sim.run(6000)
        if with_windows is not None:
            state = sim._batch_state
            assert state is not None
            with_windows(sim, state)
        return (sim.result(),
                [(sm.idle_samples, tuple(sm.idle_sum)) for sm in sim.sms])

    def test_tb_moves_force_scalar_fallback(self):
        evictions = []

        def check(sim, state):
            # The shuffling policy really did move TBs (preemption ran)...
            assert sim.preemption.evictions > 0
            evictions.append(sim.preemption.evictions)
            # ...and the probe/backoff machinery was exercised.
            assert state.backoff >= 1

        batch = self._run("batch", check)
        event = self._run("event", None)
        assert batch == event
        assert evictions and evictions[0] > 0

    def test_windows_actually_open(self, monkeypatch):
        from repro.sim.batch import BatchState

        windows = []
        original = BatchState.advance

        def counting_advance(self, cycle, horizon):
            windows.append(horizon - cycle)
            return original(self, cycle, horizon)

        monkeypatch.setattr(BatchState, "advance", counting_advance)
        batch = self._run("batch", None)
        event = self._run("event", None)
        assert batch == event
        # Vectorised windows opened and were wide enough to matter.
        assert windows and max(windows) >= 8

    def test_quota_exhaustion_stays_scalar(self):
        """A tight quota forces mid-epoch zero crossings; the probe's cap
        must keep every crossing (and its policy callback) off the
        vectorised path while staying record-identical."""
        results = {}
        for core in ("batch", "event"):
            gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                            idle_warp_samples=6,
                            sm=SMConfig(warp_schedulers=2),
                            engine_core=core)
            launches = [
                LaunchedKernel(self._compute_spec("qos-k"), is_qos=True,
                               ipc_goal=8.0),  # tiny goal => tiny quota
                LaunchedKernel(self._compute_spec("bg-k")),
            ]
            sim = GPUSimulator(gpu, launches, make_policy("rollover"))
            sim.run(6000)
            results[core] = (sim.result(), [(sm.idle_samples,
                                             tuple(sm.idle_sum))
                                            for sm in sim.sms])
        assert results["batch"] == results["event"]


class TestServedWorkloadDifferential:
    """A served workload — mid-simulation ``launch_at`` plus finite-grid
    retire driven by the dispatcher — must replay record- and telemetry-
    identical on both cores and the scan oracle.  Arrival cycles bound the
    event core's sleep skips and the batch core's probe horizon; these
    differentials keep those bounds honest."""

    HORIZON = 14000

    @classmethod
    def _serve(cls, core):
        from repro.serve import Dispatcher, PoissonArrivals, RequestClass

        gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600,
                        idle_warp_samples=6,
                        sm=SMConfig(warp_schedulers=2),
                        engine_core=core)
        classes = (RequestClass("rt", "mri-q", slo_cycles=8000, grid_tbs=1),
                   RequestClass("bg", "sad", slo_cycles=16000, grid_tbs=2))
        requests = PoissonArrivals(classes, 1500.0,
                                   seed=5).generate(cls.HORIZON)
        dispatcher = Dispatcher(gpu, max_concurrent=2, telemetry=True)
        return dispatcher.serve(requests, cls.HORIZON)

    def test_three_core_identity(self, scan_oracle):
        base = assert_cores_match_oracle(scan_oracle, self._serve)
        # Non-vacuous: requests really were launched mid-run and retired
        # (freeing slots the queues refilled), and the machine really
        # slept between arrivals.
        assert base.generated >= 6
        assert base.completed >= 3
        assert base.sim_result is not None
        assert any(record.sleep_skipped_sm_cycles
                   for record in base.telemetry)

    def test_batch_windows_open(self, monkeypatch):
        """The identity above must not come from the batch core never
        vectorising: windows still open between arrival boundaries."""
        from repro.sim.batch import BatchState

        windows = []
        original = BatchState.advance

        def counting_advance(self, cycle, horizon):
            windows.append(horizon - cycle)
            return original(self, cycle, horizon)

        monkeypatch.setattr(BatchState, "advance", counting_advance)
        batch = self._serve("batch")
        event = self._serve("event")
        assert batch == event
        assert windows and max(windows) >= 8
