"""Command-line interface: regenerate any paper figure/table.

Examples::

    repro-gpu-qos list
    repro-gpu-qos fig06a
    repro-gpu-qos fig09 --preset fast
    repro-gpu-qos all --preset fast -o results/
    repro-gpu-qos fig06a --workers 8          # sweep fan-out width
    repro-gpu-qos fig06a --no-cache           # skip the persistent store
    repro-gpu-qos cache stats                 # inspect the persistent store
    repro-gpu-qos cache clear
    repro-gpu-qos exp list                    # registered sweep experiments
    repro-gpu-qos exp resume exp-0123abcd4567 # finish an interrupted sweep
    repro-gpu-qos trace mri-q lbm -o case.jsonl   # per-epoch telemetry
    repro-gpu-qos serve --load 2000 -o run.jsonl  # online serving case
    repro-gpu-qos lint --strict               # static invariant checks
    repro-gpu-qos ext_controllers             # SLO controller evaluation
    python -m repro fig14

Environment knobs: ``REPRO_WORKERS`` sets the default process-pool width,
``REPRO_CACHE`` relocates (path) or disables (``0``) the persistent case
cache, ``REPRO_EXPDB`` does the same for the SQLite experiment store.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Optional, Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gpu-qos",
        description="Regenerate the evaluation of 'Quality of Service Support "
                    "for Fine-Grained Sharing on GPUs' (ISCA 2017)")
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig06a, table1, sec48b), "
             "'all', 'list', 'cache', 'exp', 'trace', 'serve' or 'lint'")
    parser.add_argument(
        "action", nargs="?", default=None,
        help="subcommand for 'cache': stats or clear")
    parser.add_argument("--preset", default="fast",
                        choices=("fast", "paper", "smoke"),
                        help="experiment scale (default: fast)")
    parser.add_argument("-o", "--output-dir", default=None,
                        help="also write each result table to this directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width for case sweeps "
                             "(default: REPRO_WORKERS or cpu_count-1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent case cache")
    return parser


def _cache_command(action: Optional[str]) -> int:
    from repro.harness.cache import CaseCache, cache_disabled_by_env

    if action not in ("stats", "clear"):
        print("usage: repro-gpu-qos cache {stats|clear}", file=sys.stderr)
        return 2
    if cache_disabled_by_env():
        print("persistent cache disabled by REPRO_CACHE", file=sys.stderr)
        return 0
    cache = CaseCache()
    if action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.path}")
        return 0
    for key, value in cache.stats().items():
        print(f"{key}: {value}")
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    from repro.harness.runner import POLICY_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-gpu-qos trace",
        description="Run one co-run case with engine telemetry enabled and "
                    "write the per-epoch record stream as JSONL")
    parser.add_argument(
        "kernels", nargs="+",
        help="kernel names, QoS kernels first (e.g. 'mri-q lbm')")
    parser.add_argument("--qos", type=int, default=1, metavar="N",
                        help="how many leading kernels are QoS kernels "
                             "(default: 1)")
    parser.add_argument("--goal", type=float, default=0.5, metavar="FRAC",
                        help="QoS goal as a fraction of isolated IPC "
                             "(default: 0.5)")
    parser.add_argument("--policy", default="rollover", choices=POLICY_NAMES,
                        help="sharing scheme (default: rollover)")
    parser.add_argument("--preset", default="fast",
                        choices=("fast", "paper", "smoke"),
                        help="machine/scale preset (default: fast)")
    parser.add_argument("-o", "--output", default=None,
                        help="trace file path (default: stdout)")
    return parser


def _trace_command(argv: Sequence[str]) -> int:
    from repro.harness.presets import experiment_preset
    from repro.harness.runner import CaseRunner
    from repro.trace.jsonl import write_trace

    args = build_trace_parser().parse_args(argv)
    if not 1 <= args.qos <= len(args.kernels):
        print("error: --qos must be between 1 and the kernel count",
              file=sys.stderr)
        return 2
    if len(args.kernels) < 2 and args.qos >= len(args.kernels):
        print("error: need at least one non-QoS kernel to share with",
              file=sys.stderr)
        return 2
    preset = experiment_preset(args.preset)
    qos_flags = tuple(i < args.qos for i in range(len(args.kernels)))
    goal_fractions = tuple(args.goal if flag else None for flag in qos_flags)

    runner = CaseRunner(preset.gpu, preset.cycles, telemetry=True)
    record = runner.run_case(tuple(args.kernels), qos_flags, goal_fractions,
                             args.policy)
    meta = {
        "kernels": list(args.kernels),
        "qos": list(qos_flags),
        "goal_fraction": args.goal,
        "policy": args.policy,
        "preset": args.preset,
        "cycles": preset.cycles,
        "warmup_cycles": runner.warmup_cycles,
    }
    if args.output:
        with open(args.output, "w") as stream:
            count = write_trace(stream, record.telemetry, meta=meta)
        print(f"wrote {count} epoch records to {args.output}",
              file=sys.stderr)
    else:
        count = write_trace(sys.stdout, record.telemetry, meta=meta)
    for outcome in record.kernels:
        role = "QoS" if outcome.is_qos else "non-QoS"
        goal = (f", goal {'MET' if outcome.reached else 'MISSED'}"
                if outcome.is_qos else "")
        print(f"[{outcome.name}: {role}, IPC {outcome.ipc:.1f}{goal}]",
              file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # e.g. `repro-gpu-qos cache stats | head -1`
        return 0


def _main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # 'trace', 'exp', 'lint' and 'serve' have their own option grammars;
    # dispatch before the main parse.
    if argv and argv[0] == "trace":
        return _trace_command(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "exp":
        from repro.harness.expcli import main as exp_main
        return exp_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main
        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "cache":
        return _cache_command(args.action)
    from repro.harness.experiments import ExperimentSuite
    from repro.harness.presets import experiment_preset

    # Checked before the suite opens (and creates) its stores.
    if args.experiment not in ("all", "list") + ExperimentSuite.EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}; choose "
              f"'all' or one of: {', '.join(ExperimentSuite.EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    if args.action is not None:
        parser.error(f"unexpected argument {args.action!r}: only 'cache' "
                     "takes a subcommand")
    if args.experiment == "list":
        for experiment_id in ExperimentSuite.EXPERIMENTS:
            print(experiment_id)
        return 0
    experiment_ids = (list(ExperimentSuite.EXPERIMENTS)
                      if args.experiment == "all" else [args.experiment])

    preset = experiment_preset(args.preset)
    suite = ExperimentSuite(preset, workers=args.workers,
                            cache=None if args.no_cache else "default")
    print(suite.preset.describe(), file=sys.stderr)

    output_dir = pathlib.Path(args.output_dir) if args.output_dir else None
    if output_dir:
        output_dir.mkdir(parents=True, exist_ok=True)

    for experiment_id in experiment_ids:
        # Elapsed-time display only; never feeds a result.
        started = time.time()  # repro: noqa=DET001
        result = suite.run(experiment_id)
        elapsed = time.time() - started  # repro: noqa=DET001
        print()
        print(result.table)
        print(f"[{experiment_id} regenerated in {elapsed:.1f}s]",
              file=sys.stderr)
        if output_dir:
            path = output_dir / f"{result.experiment_id}.txt"
            path.write_text(result.table + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
