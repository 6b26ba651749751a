"""Tests for engine telemetry as an epoch trace, and its ASCII rendering."""

from repro.config import GPUConfig, SMConfig
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.qos import QoSPolicy
from repro.sim import (GPUSimulator, LaunchedKernel, SharingPolicy,
                       TelemetryRecorder)
from repro.trace import render_timeline, sparkline


def spec(name):
    return KernelSpec(
        name=name, threads_per_tb=64, regs_per_thread=16,
        mix=InstructionMix(alu=0.85, sfu=0.0, ldg=0.1, stg=0.05, lds=0.0),
        memory=MemoryPattern(footprint_bytes=1 << 22),
        ilp=0.8, body_length=16, iterations_per_tb=3)


def traced_run(policy, cycles=3000):
    """The completed epochs' records (no trailing partial epoch)."""
    gpu = GPUConfig(num_sms=2, num_mcs=1, epoch_length=400,
                    idle_warp_samples=8, sm=SMConfig(warp_schedulers=2))
    recorder = TelemetryRecorder()
    sim = GPUSimulator(gpu, [
        LaunchedKernel(spec("traced-qos"), is_qos=True, ipc_goal=20.0),
        LaunchedKernel(spec("traced-be")),
    ], policy, telemetry=recorder)
    sim.run(cycles)
    return recorder.records, sim


class TestRecorder:
    def test_one_sample_per_completed_epoch(self):
        records, sim = traced_run(QoSPolicy("rollover"))
        assert len(records) == sim.epoch_index

    def test_samples_monotone_in_cycle(self):
        records, _sim = traced_run(QoSPolicy("rollover"))
        cycles = [record.end_cycle for record in records]
        assert cycles == sorted(cycles)

    def test_ipc_series_positive_for_running_kernel(self):
        records, _sim = traced_run(QoSPolicy("rollover"))
        assert any(record.kernels[0].epoch_ipc > 0 for record in records)

    def test_records_alphas_for_qos_policy(self):
        records, _sim = traced_run(QoSPolicy("rollover"))
        qos, nonqos = records[-1].kernels
        assert qos.alpha is not None
        assert nonqos.ipc_goal is not None

    def test_plain_policy_has_no_alpha(self):
        records, _sim = traced_run(SharingPolicy())
        assert all(kernel.alpha is None for kernel in records[-1].kernels)

    def test_quota_remaining_recorded(self):
        records, _sim = traced_run(QoSPolicy("rollover"))
        assert all(kernel.quota_residual is not None
                   for kernel in records[-1].kernels)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_resampling(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_monotone_values_monotone_blocks(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert list(line) == sorted(line)

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_ceiling_pins_scale(self):
        half = sparkline([5.0], ceiling=10.0)
        full = sparkline([5.0], ceiling=5.0)
        assert half != full


class TestRenderTimeline:
    def test_renders_all_kernels(self):
        records, _sim = traced_run(QoSPolicy("rollover"))
        text = render_timeline(records, ["alpha-kernel", "beta-kernel"],
                               goals=[20.0, None])
        assert "alpha-kernel" in text
        assert "beta-kernel" in text
        assert "goal=20.0" in text
        assert "tbs" in text
        assert f"{len(records)} epochs" in text

    def test_empty_trace(self):
        assert render_timeline([], []) == "(empty trace)"
