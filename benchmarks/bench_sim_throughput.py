"""Simulator throughput microbenchmark.

Measures, on the current machine:

1. Engine hot-path speed: simulated cycles/second of
   ``GPUSimulator.run`` for the canonical workload shapes.  The *membound
   stream* shape is the sleep-skipping showcase: a bandwidth-bound kernel
   on many single-scheduler SMs under deep DRAM latency, so most SMs
   spend most cycles stalled and the run loop skips them with one
   comparison each.  The *compute alu-dense* shape is the opposite end: a
   memory-free high-ILP kernel that keeps every SM issuing almost every
   cycle, so nothing can be skipped and the per-cycle issue path is all
   that is timed.
2. A per-function cProfile hotspot table for the run loop on the
   showcase shape, so regressions in the hot path are visible as moved
   rows rather than just a slower total.
3. Epoch-telemetry overhead: the canonical shapes timed with telemetry
   off (no recorder attached — the default, which must stay free) and on
   (a :class:`repro.sim.TelemetryRecorder` collecting every epoch
   record), with the on/off overhead percentage per shape.
4. Sweep wall-clock for a fast-preset Figure 6 slice three ways: serial
   ``CaseRunner``, parallel ``ParallelCaseRunner``, and a warm-cache rerun
   (persistent case cache pre-populated by the parallel pass).
5. Memory a served sweep keeps: eight short serving specs served one
   after another in this process through one ``ServeRunner`` with the
   cyclic garbage collector off, reporting the traced memory (tracemalloc)
   each case leaves behind and the ``GPUSimulator``, ``ThreadBlock``,
   ``Warp`` and scheduler objects still alive after the sweep.  A finished
   simulation, with whatever was resident when it ended, must be freed by
   reference counting alone, so every count must be 0.

Run standalone — it is a script, not a pytest benchmark::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py

``--quick`` runs only the engine timings, the hotspot table and the
served sweep at reduced cycle counts and never writes results; CI uses it
as a smoke test that the bench harness itself works (no timing
assertions).  Either mode exits 1 when a simulator, thread block, warp
or scheduler outlives the served sweep.

The report is printed and written to ``benchmarks/results/
bench_sim_throughput.txt``; the engine timings are additionally written
as machine-readable JSON to ``benchmarks/results/BENCH_sim_throughput.json``
(or wherever ``--json`` points, which works in ``--quick`` mode too) so the
perf trajectory is diffable across commits.  Parallel speedup scales with
the core count (printed in the header); the warm-cache rerun is
machine-independent and should cost well under 10% of the cold sweep.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import platform
import pstats
import tempfile
import time
import tracemalloc

from repro.config import FAST_GPU, KB, LatencyConfig, MemoryConfig, SMConfig
from repro.harness.cache import (CaseCache, code_salt, experiment_id_for,
                                 experiment_spec_hash, sweep_grid_payload)
from repro.harness.parallel import ParallelCaseRunner, resolve_workers
from repro.harness.runner import CaseRunner, CaseSpec
from repro.kernels import get_kernel
from repro.kernels.spec import InstructionMix, KernelSpec, MemoryPattern
from repro.kernels.synthetic import streaming_kernel
from repro.qos import QoSPolicy
from repro.serve.runner import ServeRunner, ServeSpec
from repro.sim import GPUSimulator, LaunchedKernel, TelemetryRecorder
from repro.sim.scheduler import GTOScheduler, LRRScheduler
from repro.sim.tb import ThreadBlock
from repro.sim.warp import Warp

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "bench_sim_throughput.txt"
JSON_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_sim_throughput.json"

#: What a finished served case must not leave alive (LRRScheduler is
#: counted apart from the GTOScheduler it subclasses).
RUN_TYPES = (GPUSimulator, ThreadBlock, Warp, GTOScheduler, LRRScheduler)

# A fast-preset Figure 6 slice: QoS goal sweep over three representative
# pairs under the rollover scheme (plus spart for scheme diversity).
SWEEP_GOALS = (0.5, 0.65, 0.8)
SWEEP_PAIRS = (("sgemm", "lbm"), ("mri-q", "spmv"), ("stencil", "histo"))

# The sleep-skipping showcase: 16 single-scheduler SMs (all resident warps
# in one scheduler per SM — the shape where a per-select scan over the
# warp list is most expensive) running a streaming kernel against deep
# DRAM latency, so warps stall for thousands of cycles and whole SMs sleep
# while memory is in flight.
MEMBOUND_GPU = FAST_GPU.scaled(
    num_sms=16, num_mcs=4,
    sm=SMConfig(warp_schedulers=1),
    memory=MemoryConfig(
        l2_slice_size=256 * KB,
        latency=LatencyConfig(dram=2000, dram_row_hit=1200, l2_hit=500)))


# The dense-issue shape: a memory-free, barrier-free, high-ILP ALU kernel
# (greedy runs of back-to-back single-cycle instructions are long, so some
# warp is ready on almost every cycle) on the fast machine with a sparse
# 500-cycle idle-warp sample grid.
COMPUTE_GPU = FAST_GPU.scaled(epoch_length=10_000, idle_warp_samples=20)


def _alu_dense_kernel() -> KernelSpec:
    return KernelSpec(
        name="alu-dense", threads_per_tb=256, regs_per_thread=32,
        body_length=256, iterations_per_tb=64,
        mix=InstructionMix(alu=0.94, sfu=0.0, ldg=0.0, stg=0.0, lds=0.06),
        ilp=0.97,
        memory=MemoryPattern(footprint_bytes=1 << 20))


def _shapes():
    return [
        ("isolated sgemm", FAST_GPU,
         lambda: [LaunchedKernel(get_kernel("sgemm"))], None),
        ("rollover pair sgemm+lbm", FAST_GPU,
         lambda: [LaunchedKernel(get_kernel("sgemm"), is_qos=True,
                                 ipc_goal=100.0),
                  LaunchedKernel(get_kernel("lbm"))],
         "rollover"),
        ("membound stream (16 SMs)", MEMBOUND_GPU,
         lambda: [LaunchedKernel(streaming_kernel())], None),
        ("compute alu-dense", COMPUTE_GPU,
         lambda: [LaunchedKernel(_alu_dense_kernel())], None),
    ]


def _time_run(gpu, launches, policy_name, cycles, repeats=2,
              telemetry=False) -> float:
    best = None
    for _ in range(repeats):
        policy = QoSPolicy(policy_name) if policy_name else None
        recorder = TelemetryRecorder() if telemetry else None
        sim = GPUSimulator(gpu, launches(), policy, telemetry=recorder)
        started = time.perf_counter()  # repro: noqa=DET001 -- benchmark wall-time
        sim.run(cycles)
        elapsed = time.perf_counter() - started  # repro: noqa=DET001 -- benchmark wall-time
        best = elapsed if best is None else min(best, elapsed)
    return best


def engine_throughput(cycles: int, repeats: int = 3) -> list:
    """Per-shape run-loop timings.

    Returns one dict per shape — the same structure the JSON report
    serialises — with the best-of-``repeats`` ``seconds`` and the derived
    ``cycles_per_second``.
    """
    rows = []
    for label, gpu, launches, policy_name in _shapes():
        seconds = _time_run(gpu, launches, policy_name, cycles, repeats)
        rows.append({
            "label": label,
            "cycles": cycles,
            "seconds": seconds,
            "cycles_per_second": cycles / seconds,
        })
    return rows


def hotspot_table(cycles: int, top: int = 8) -> list:
    """Top functions by internal time on the sleep-skipping showcase."""
    sim = GPUSimulator(MEMBOUND_GPU, [LaunchedKernel(streaming_kernel())])
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(cycles)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime")
    rows = []
    for func in stats.fcn_list[:top]:
        cc, _ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, lineno, name = func
        where = pathlib.Path(filename).name
        if lineno:
            where = f"{where}:{lineno}"
        rows.append((f"{name} ({where})", cc, tottime, cumtime))
    return rows


def telemetry_overhead(cycles: int, repeats: int = 3) -> list:
    """Per-shape wall-clock with telemetry off vs on, and the overhead %.

    The off column is the default configuration (no recorder attached);
    it is the one the <5% acceptance bound guards.
    """
    rows = []
    for label, gpu, launches, policy_name in _shapes():
        off = _time_run(gpu, launches, policy_name, cycles, repeats)
        on = _time_run(gpu, launches, policy_name, cycles, repeats,
                       telemetry=True)
        rows.append((label, off, on, 100.0 * (on - off) / off))
    return rows


def sweep_cases() -> list:
    return [CaseSpec.pair(qos, other, goal, policy)
            for qos, other in SWEEP_PAIRS
            for goal in SWEEP_GOALS
            for policy in ("rollover", "spart")]


def sweep_experiment_identity(cycles: int) -> dict:
    """The experiment-store identity of the figure 6 slice sweep.

    Content-derived (machine + cycles + spec grid + code salt), so it is
    computable without running anything and lands in both the text header
    and the JSON report — the committed results name exactly which
    registered experiment they measure.
    """
    runner = CaseRunner(FAST_GPU, cycles)
    grid = sweep_grid_payload(FAST_GPU, cycles, runner.warmup_cycles,
                              runner.telemetry,
                              [spec.payload() for spec in sweep_cases()])
    spec_hash = experiment_spec_hash(grid)
    return {"id": experiment_id_for(spec_hash), "spec_hash": spec_hash}


def sweep_timings(cycles: int, workers: int) -> list:
    cases = sweep_cases()
    rows = []

    started = time.perf_counter()  # repro: noqa=DET001 -- benchmark wall-time
    serial_records = CaseRunner(FAST_GPU, cycles).sweep(cases)
    serial = time.perf_counter() - started  # repro: noqa=DET001 -- benchmark wall-time
    rows.append(("serial CaseRunner", serial, 1.0))

    with tempfile.TemporaryDirectory() as tmp:
        started = time.perf_counter()  # repro: noqa=DET001 -- benchmark wall-time
        parallel_records = ParallelCaseRunner(
            FAST_GPU, cycles, workers=workers,
            cache=CaseCache(pathlib.Path(tmp))).sweep(cases)
        parallel = time.perf_counter() - started  # repro: noqa=DET001 -- benchmark wall-time
        rows.append((f"parallel x{workers}", parallel, serial / parallel))

        started = time.perf_counter()  # repro: noqa=DET001 -- benchmark wall-time
        warm_records = ParallelCaseRunner(
            FAST_GPU, cycles, workers=workers,
            cache=CaseCache(pathlib.Path(tmp))).sweep(cases)
        warm = time.perf_counter() - started  # repro: noqa=DET001 -- benchmark wall-time
        rows.append(("warm cache rerun", warm, serial / warm))

    assert parallel_records == serial_records, "parallel sweep diverged"
    assert warm_records == serial_records, "cached sweep diverged"
    return rows


def served_specs(horizon: int) -> list:
    """Eight short serving cases: four Poisson loads, two seeds each."""
    classes = (("rt", "mri-q", 8000, 4, 1.0), ("bg", "sad", 16000, 4, 1.0))
    return [ServeSpec(process="poisson",
                      params=(("mean_interarrival_cycles", float(load)),),
                      classes=classes, seed=seed, horizon_cycles=horizon)
            for load in (4000, 3000, 2000, 1500)
            for seed in (0, 1)]


def served_sweep(horizon: int) -> dict:
    """Serve :func:`served_specs` in this process with the cyclic collector
    off; report the traced memory each case keeps and, by type, the
    simulators, thread blocks, warps and schedulers still alive afterwards
    (all 0 when every finished run freed itself)."""
    specs = served_specs(horizon)
    runner = ServeRunner(FAST_GPU)
    rows = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for spec in specs:
            before = tracemalloc.get_traced_memory()[0]
            outcome = runner.run_spec(spec)
            kept = tracemalloc.get_traced_memory()[0] - before
            rows.append({
                "load": spec.params[0][1],
                "seed": spec.seed,
                "generated": outcome.generated,
                "completed": outcome.completed,
                "kept_kib": round(kept / 1024, 1),
            })
        alive = {cls.__name__: 0 for cls in RUN_TYPES}
        for obj in gc.get_objects():
            if isinstance(obj, RUN_TYPES):
                alive[type(obj).__name__] += 1
    finally:
        tracemalloc.stop()
        gc.enable()
    return {"horizon_cycles": horizon, "cases": rows,
            "objects_alive": alive}


def format_report(engine_rows, hotspot_rows, telemetry_rows, served,
                  sweep_rows, cycles, workers) -> str:
    lines = []
    lines.append("simulator throughput microbenchmark")
    lines.append("=" * 35)
    lines.append(f"python {platform.python_version()}  "
                 f"cores {os.cpu_count()}  workers {workers}  "
                 f"code salt {code_salt()}")
    lines.append("")
    lines.append(f"engine hot path ({cycles} cycles, best of repeats)")
    lines.append(f"{'workload':<28}{'seconds':>9}{'cyc/s':>13}")
    for row in engine_rows:
        lines.append(f"{row['label']:<28}{row['seconds']:>9.3f}"
                     f"{row['cycles_per_second']:>13,.0f}")
    lines.append("")
    lines.append("run-loop hotspots (membound stream, by internal time)")
    lines.append(f"{'function':<44}{'calls':>9}{'tottime':>9}{'cumtime':>9}")
    for name, ncalls, tottime, cumtime in hotspot_rows:
        lines.append(f"{name:<44}{ncalls:>9}{tottime:>9.3f}{cumtime:>9.3f}")
    lines.append("")
    lines.append("epoch telemetry overhead (off = default, no recorder)")
    lines.append(f"{'workload':<28}{'off s':>9}{'on s':>9}{'overhead':>10}")
    for label, off, on, overhead in telemetry_rows:
        lines.append(f"{label:<28}{off:>9.3f}{on:>9.3f}{overhead:>9.1f}%")
    lines.append("")
    lines.append(f"served sweep ({len(served['cases'])} specs, "
                 f"{served['horizon_cycles']} cycles each, one process, "
                 "cyclic collector off)")
    lines.append(f"{'mean interarrival':<20}{'seed':>5}{'served':>11}"
                 f"{'KiB kept':>11}")
    for row in served["cases"]:
        served_text = f"{row['completed']}/{row['generated']}"
        lines.append(f"{row['load']:<20.0f}{row['seed']:>5}"
                     f"{served_text:>11}{row['kept_kib']:>11.1f}")
    lines.append("objects alive after the sweep: " + ", ".join(
        f"{name} {count}" for name, count in served["objects_alive"].items()))
    if sweep_rows is not None:
        lines.append("")
        cases = len(sweep_cases())
        identity = sweep_experiment_identity(cycles)
        lines.append(f"figure 6 slice sweep ({cases} cases, "
                     f"{cycles} cycles each)")
        lines.append(f"experiment {identity['id']} "
                     f"(spec {identity['spec_hash'][:16]})")
        lines.append(f"{'executor':<28}{'seconds':>9}{'vs serial':>13}")
        for label, elapsed, speedup in sweep_rows:
            lines.append(f"{label:<28}{elapsed:>9.3f}{speedup:>12.1f}x")
        warm = sweep_rows[-1][1]
        cold = sweep_rows[0][1]
        lines.append("")
        lines.append(f"warm-cache rerun is {100.0 * warm / cold:.1f}% "
                     "of the cold serial sweep")
    return "\n".join(lines) + "\n"


def json_report(engine_rows, served, cycles: int, workers: int) -> dict:
    """The machine-readable engine timings and served-sweep memory
    (diffable across commits)."""
    return {
        "bench": "sim_throughput",
        "cycles": cycles,
        "workers": workers,
        "python": platform.python_version(),
        "code_salt": code_salt(),
        "shapes": engine_rows,
        "served_sweep": served,
        "sweep_experiment": sweep_experiment_identity(cycles),
    }


def _write_json(payload: dict, path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[json written to {path}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=24000,
                        help="simulated cycles per case (default: 24000)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool width (default: REPRO_WORKERS or "
                             "cpu_count-1)")
    parser.add_argument("--quick", action="store_true",
                        help="engine timings, hotspots and the served "
                             "sweep only, at reduced cycles; implies "
                             "--no-save (CI smoke mode)")
    parser.add_argument("--no-save", action="store_true",
                        help="print only; do not update benchmarks/results/")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the engine-timings JSON here "
                             "(works with --quick; default in full save "
                             f"mode: {JSON_PATH})")
    args = parser.parse_args()

    workers = resolve_workers(args.workers)
    if args.quick:
        cycles = min(args.cycles, 6000)
        engine_rows = engine_throughput(cycles, repeats=1)
        served = served_sweep(2 * cycles)
        report = format_report(engine_rows,
                               hotspot_table(cycles),
                               telemetry_overhead(cycles, repeats=1),
                               served, None, cycles, workers)
        print(report, end="")
        if args.json:
            _write_json(json_report(engine_rows, served, cycles, workers),
                        pathlib.Path(args.json))
        return 1 if any(served["objects_alive"].values()) else 0

    engine_rows = engine_throughput(args.cycles)
    served = served_sweep(2 * args.cycles)
    report = format_report(engine_rows,
                           hotspot_table(args.cycles),
                           telemetry_overhead(args.cycles),
                           served,
                           sweep_timings(args.cycles, workers),
                           args.cycles, workers)
    print(report, end="")
    if not args.no_save:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report)
        print(f"[written to {RESULTS_PATH}]")
    if args.json or not args.no_save:
        _write_json(json_report(engine_rows, served, args.cycles, workers),
                    pathlib.Path(args.json) if args.json else JSON_PATH)
    return 1 if any(served["objects_alive"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
