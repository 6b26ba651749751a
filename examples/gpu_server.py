#!/usr/bin/env python3
"""A shared GPU server: three tenants, two SLOs, one GPU.

Three tenants share one simulated GPU through the online serving layer
(:mod:`repro.serve`): an interactive inference service and a video pipeline
submit a job every period and must finish each job before the next one
lands; an analytics batch job is best-effort.  Periodic deadlines map onto
serving concepts directly — the period becomes a
:class:`~repro.serve.arrivals.PeriodicArrivals` stream and the deadline an
SLO in cycles — and per-tenant deadline attainment falls out of the
request records.

Each job is a finite grid launched mid-simulation
(``GPUSimulator.launch_at``) and retired when it drains, so "did the job
make its deadline" is read off its request record instead of being
inferred from a sustained IPC.  A continuous kernel with a throughput
contract is a co-run case: ``examples/video_analytics.py`` turns a frame
rate into an IPC goal with ``translate_qos_goal`` (Section 3.2).  The
serving layer's SLO-feasibility admission policy learns each class's
service time online (:mod:`repro.serve.predictor`).

Run:  python examples/gpu_server.py
"""

from repro import FAST_GPU
from repro.serve import Dispatcher, PeriodicArrivals, RequestClass

# One job per tenant per period; at the fast machine's scale this keeps the
# whole window seconds of pure-Python simulation.  A real study would run
# much longer windows.
PERIOD_CYCLES = 12_000
WINDOW_CYCLES = 8 * PERIOD_CYCLES


def main() -> None:
    # Tenant 1: interactive inference — each job must complete within its
    # period.  Tenant 2: video analytics on a streaming kernel; the
    # pipeline buffers one frame, so a job may take up to two periods.
    # Tenant 3: best-effort batch analytics; its "SLO" is the whole
    # window, so attainment measures completion.
    tenants = (
        RequestClass(name="inference", kernel="mri-q",
                     slo_cycles=PERIOD_CYCLES, grid_tbs=4),
        RequestClass(name="video", kernel="stencil",
                     slo_cycles=2 * PERIOD_CYCLES, grid_tbs=1),
        RequestClass(name="analytics", kernel="sgemm",
                     slo_cycles=WINDOW_CYCLES, grid_tbs=2),
    )
    arrivals = PeriodicArrivals(tenants, PERIOD_CYCLES)

    # Deadline tenants get priority over best-effort work; the dispatcher
    # serves lower priority values first.
    dispatcher = Dispatcher(FAST_GPU, class_priority={"inference": 0,
                                                      "video": 0,
                                                      "analytics": 1})
    result = dispatcher.serve(arrivals.generate(WINDOW_CYCLES),
                              WINDOW_CYCLES)

    print(f"served {result.generated} jobs over {result.horizon_cycles} "
          f"cycles on {FAST_GPU.num_sms} SMs "
          f"({result.completed} completed, {result.unfinished} still "
          f"queued or running at the horizon)\n")
    header = (f"{'tenant':<12}{'jobs':>6}{'done':>6}{'p50 lat':>9}"
              f"{'p99 lat':>9}{'deadline met':>14}")
    print(header)
    print("-" * len(header))
    for name, row in result.summary().items():
        p50 = row["p50_latency"] if row["p50_latency"] is not None else "-"
        p99 = row["p99_latency"] if row["p99_latency"] is not None else "-"
        print(f"{name:<12}{row['requests']:>6}{row['completed']:>6}"
              f"{p50:>9}{p99:>9}{row['slo_attainment']:>14.1%}")


if __name__ == "__main__":
    main()
