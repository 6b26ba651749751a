#!/usr/bin/env python3
"""Watch the QoS manager converge: an epoch-by-epoch timeline.

Records the Rollover policy's engine telemetry (one
:class:`repro.sim.EpochRecord` per completed epoch) and renders per-kernel
IPC and TB-residency sparklines.  You can see the three mechanisms of the
paper acting in sequence: the quota throttle pinning the QoS kernel's IPC
to its goal, alpha briefly rising while the warm-up deficit is repaid, and
the static allocator shifting TBs until the best-effort kernel owns the
leftover TLP.

Run:  python examples/qos_timeline.py
"""

from repro import FAST_GPU, GPUSimulator, LaunchedKernel, QoSPolicy, get_kernel
from repro.sim import TelemetryRecorder
from repro.trace import render_timeline

CYCLES = 30_000
QOS, NONQOS = "mri-q", "stencil"
GOAL_FRACTION = 0.60


def isolated_ipc(name: str) -> float:
    sim = GPUSimulator(FAST_GPU, [LaunchedKernel(get_kernel(name))])
    sim.run(CYCLES)
    return sim.result().kernels[0].ipc


def main() -> None:
    goal = GOAL_FRACTION * isolated_ipc(QOS)
    recorder = TelemetryRecorder()
    sim = GPUSimulator(FAST_GPU, [
        LaunchedKernel(get_kernel(QOS), is_qos=True, ipc_goal=goal),
        LaunchedKernel(get_kernel(NONQOS)),
    ], QoSPolicy("rollover"), telemetry=recorder)
    sim.run(CYCLES)

    # Epochs closed at a boundary; finalize_telemetry() would also flush
    # the one still open when the run stops.
    records = recorder.records
    print(render_timeline(records, [QOS, NONQOS], goals=[goal, None]))
    print()
    qos, nonqos = records[-1].kernels
    result = sim.result()
    print(f"final: {QOS} IPC {result.kernels[0].ipc:.1f} "
          f"(goal {goal:.1f}, alpha {qos.alpha:.2f}), "
          f"{NONQOS} IPC {result.kernels[1].ipc:.1f} "
          f"(artificial goal {nonqos.ipc_goal:.1f})")
    print(f"TB context switches: {result.evictions}")


if __name__ == "__main__":
    main()
