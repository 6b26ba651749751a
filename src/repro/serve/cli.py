"""``repro serve``: run one online-serving case and emit its request trace.

Mirrors ``repro trace`` (one case, JSONL out, human summary on stderr) but
for the serving layer: a seeded arrival process drives the dispatcher on a
preset machine, the per-request records stream out as JSONL (stdout or
``-o``), and a per-class latency/SLO summary lands on stderr.

Examples::

    repro-gpu-qos serve                                # poisson on defaults
    repro-gpu-qos serve --load 1500 --seed 7 -o run.jsonl
    repro-gpu-qos serve --process periodic --period 4000
    repro-gpu-qos serve --admission cap:4 --max-concurrent 2
    repro-gpu-qos serve --class rt:mri-q:8000 --class batch:lbm:40000:16:0.5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

#: Default two-class workload: a latency-sensitive compute kernel and a
#: throughput-oriented memory kernel — the canonical serving mix.  Grids
#: are small (4 TBs) so requests actually drain within a preset's horizon
#: on the 4-SM fast machine.
DEFAULT_CLASSES = (("latency", "mri-q", 24000, 4, 1.0),
                   ("batch", "lbm", 96000, 4, 1.0))


def parse_class(text: str) -> Tuple[str, str, int, int, float]:
    """``name:kernel:slo[:grid_tbs[:weight]]`` -> a ServeSpec class row."""
    parts = text.split(":")
    if not 3 <= len(parts) <= 5:
        raise argparse.ArgumentTypeError(
            f"class spec {text!r} must be name:kernel:slo[:grid[:weight]]")
    name, kernel, slo = parts[0], parts[1], int(parts[2])
    grid = int(parts[3]) if len(parts) > 3 else 8
    weight = float(parts[4]) if len(parts) > 4 else 1.0
    return (name, kernel, slo, grid, weight)


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.serve.runner import PROCESS_NAMES, SERVE_POLICIES

    parser = argparse.ArgumentParser(
        prog="repro-gpu-qos serve",
        description="Serve an open-loop request stream against one "
                    "simulated GPU and write per-request records as JSONL")
    parser.add_argument("--process", default="poisson", choices=PROCESS_NAMES,
                        help="arrival process (default: poisson)")
    parser.add_argument("--load", type=float, default=2000.0, metavar="CYC",
                        help="mean inter-arrival gap in cycles for the "
                             "stochastic processes (default: 2000)")
    parser.add_argument("--period", type=int, default=4000, metavar="CYC",
                        help="period for periodic/diurnal processes "
                             "(default: 4000)")
    parser.add_argument("--horizon", type=int, default=None, metavar="CYC",
                        help="serving horizon in cycles (default: the "
                             "preset's measured cycles)")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival-process seed (default: 0)")
    parser.add_argument("--admission", default="always", metavar="POLICY",
                        help="admission policy: always, cap:<n>, or slo "
                             "(default: always)")
    parser.add_argument("--max-concurrent", type=int, default=4, metavar="N",
                        help="concurrent requests on the GPU (default: 4)")
    parser.add_argument("--policy", default="smk", choices=SERVE_POLICIES,
                        help="sharing scheme between concurrent requests "
                             "(default: smk; the quota schemes and spart "
                             "cannot serve kernels launched mid-run)")
    parser.add_argument("--class", dest="classes", action="append",
                        type=parse_class, metavar="NAME:KERNEL:SLO[:GRID[:W]]",
                        help="request class (repeatable; default: a "
                             "latency + batch mix on mri-q and lbm)")
    parser.add_argument("--preset", default="fast",
                        choices=("fast", "paper", "smoke"),
                        help="machine/scale preset (default: fast)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent case cache")
    parser.add_argument("-o", "--output", default=None,
                        help="request-trace file path (default: stdout)")
    return parser


def _spec_params(args) -> List[Tuple[str, float]]:
    if args.process == "poisson":
        return [("mean_interarrival_cycles", float(args.load))]
    if args.process == "bursty":
        return [("burst_interarrival", float(args.load) / 4.0),
                ("idle_interarrival", float(args.load) * 4.0),
                ("mean_burst_cycles", float(args.period)),
                ("mean_idle_cycles", float(args.period))]
    if args.process == "diurnal":
        return [("amplitude", 0.8),
                ("mean_interarrival_cycles", float(args.load)),
                ("period_cycles", float(args.period))]
    return [("period_cycles", float(args.period))]


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.harness.presets import experiment_preset
    from repro.serve.metrics import write_request_trace
    from repro.serve.runner import ServeRunner, ServeSpec

    args = build_serve_parser().parse_args(argv)
    preset = experiment_preset(args.preset)
    horizon = args.horizon if args.horizon else preset.cycles
    classes = tuple(args.classes) if args.classes else DEFAULT_CLASSES
    spec = ServeSpec(
        process=args.process,
        params=tuple(sorted(_spec_params(args))),
        classes=classes,
        seed=args.seed,
        horizon_cycles=horizon,
        admission=args.admission,
        max_concurrent=args.max_concurrent,
        policy=args.policy,
    )
    cache = None
    if not args.no_cache:
        from repro.harness.cache import open_default_cache
        cache = open_default_cache()
    runner = ServeRunner(preset.gpu, cache=cache)
    try:
        outcome = runner.run_spec(spec)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    meta = {"spec": spec.payload(), "preset": args.preset}
    if args.output:
        with open(args.output, "w") as stream:
            count = write_request_trace(stream, outcome.records, meta=meta)
        print(f"wrote {count} request records to {args.output}",
              file=sys.stderr)
    else:
        write_request_trace(sys.stdout, outcome.records, meta=meta)
    print(f"[serve: {outcome.generated} generated, {outcome.admitted} "
          f"admitted, {outcome.rejected} rejected, {outcome.completed} "
          f"completed, {outcome.unfinished} unfinished over "
          f"{outcome.horizon_cycles} cycles]", file=sys.stderr)
    from repro.serve.metrics import class_summary
    for name, row in class_summary(outcome.records).items():
        attainment = 100.0 * row["slo_attainment"]
        print(f"[{name}: p50 {row['p50_latency']} p99 {row['p99_latency']} "
              f"cycles, SLO attainment {attainment:.1f}%]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
