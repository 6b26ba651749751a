"""End-to-end benchmark of the GPU QoS simulator repository.

    python3 perfbench/run.py --workload corun-cold --seed 0 --seconds 20 --trace 0

Runs one workload (corun-cold, serve-cold, rerun-warm or lint-edit) in
its own process against the program in ``src/`` next to this directory,
prints every metric with its unit and sample count, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced process gives the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
#: The seed whose serving and warm-grid digests are stored.
DEFAULT_SEED = 0
#: Every process of one run must end within this many seconds.
BUDGET_S = 170.0
#: Extra set-up-only processes per measured run; ``setup_s`` is the
#: median over them and the measured process.
SETUP_SAMPLES = 4
#: The short stream the serving-policy disclosure serves per policy.
PROBE_SPEC = {"process": "poisson", "params": {"mean_interarrival_cycles": 3000.0},
              "classes": [["latency", "mri-q", 24000, 4, 1.0],
                          ["batch", "lbm", 96000, 4, 1.0]],
              "seed": 0, "horizon_cycles": 8000, "admission": "always",
              "max_concurrent": 4, "policy": "smk"}


class RunFailed(Exception):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One benchmark run: its working directory and its processes."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str,
                 budget: float = BUDGET_S):
        from e2ebench.inputs import generate
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.deadline = _clock() + budget
        self.dir = ROOT / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.inputs = generate(workload, seed, size)
        self.jobs = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def fresh_dirs(self, label: str) -> dict:
        base = self.dir / label
        return {"cache": str(base / "cache"),
                "expdb": str(base / "expdb.sqlite"),
                "lint_cache": str(base / "lint-cache"),
                "tree": str(base / "tree")}

    def spawn(self, job: dict) -> dict:
        """Run one child process to completion and return its result."""
        self.jobs += 1
        path = self.dir / f"job{self.jobs}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(ROOT / "src")])
        env["REPRO_WORKERS"] = "1"
        env["REPRO_CACHE"] = job["dirs"]["cache"] if "dirs" in job else "0"
        env["REPRO_EXPDB"] = job["dirs"]["expdb"] if "dirs" in job else "0"
        env["REPRO_LINT_CACHE"] = (job["dirs"]["lint_cache"]
                                   if "dirs" in job else "0")
        job = dict(job, spawn_clock=_clock())
        path.write_text(json.dumps(job))
        process = subprocess.Popen(
            [sys.executable, "-m", "e2ebench.child", str(path)],
            cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        try:
            _out, err = process.communicate(
                timeout=max(1.0, self.deadline - _clock()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise RunFailed(f"{job['mode']} process exceeded the time budget")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0:
            raise RunFailed(f"{job['mode']} process failed "
                            f"(exit {process.returncode}):\n"
                            + err.decode(errors="replace")[-2000:])
        return json.loads((self.dir / f"job{self.jobs}.out.json").read_text())

    def prepare(self, label: str) -> dict:
        """Fresh store directories plus the workload's fixture, built
        outside the measured process."""
        dirs = self.fresh_dirs(label)
        job = {"workload": self.workload, "inputs": self.inputs,
               "dirs": dirs}
        if self.workload == "rerun-warm":
            job["fixture_digest"] = self.spawn(
                dict(job, mode="fixture"))["digest"]
        if self.workload == "lint-edit":
            # The archive is the benchmark's own; the filter only keeps
            # newer Pythons from warning about unfiltered extraction.
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            with tarfile.open(DATA / "lint_tree.tar.gz") as archive:
                archive.extractall(dirs["tree"], **safe)
        return job

    def measure(self, job: dict, **stop) -> dict:
        return self.spawn(dict(job, mode="measure",
                               reference=self.reference(), **stop))

    def reference(self) -> dict:
        """Reference digests of the default size.  The co-run references
        cover every case any seed can draw and the lint findings do not
        depend on the seed; serving streams and the warm grid are stored
        for the default seed only."""
        if self.size != "default":
            return {}
        stored = json.loads((DATA / "reference.json").read_text())
        digests = stored.get(self.workload, {})
        if self.workload in ("corun-cold", "lint-edit"):
            return digests
        return digests if self.seed == DEFAULT_SEED else {}

    def probe(self) -> list:
        return self.spawn({"mode": "probe", "spec": PROBE_SPEC})["policies"]


def _ops_summary(ops: list) -> tuple:
    completed = [op for op in ops if op["ok"]]
    return completed, len(ops) - len(completed)


def _print_ops(ops: list, show_digests: bool) -> None:
    """Failed operations, and each key's digest so two commits can be
    compared on seeds without stored references."""
    failures = [op for op in ops if not op["ok"]]
    for op in failures[:10]:
        print(f"  FAILED {op['key']}: {op['error']}")
    if show_digests:
        seen = {}
        for op in ops:
            if op["digest"] is not None:
                seen.setdefault(op["key"], op["digest"])
        for key, value in seen.items():
            print(f"  digest {key} {value}")


def _untraced(run: Run) -> dict:
    from e2ebench.measure import beyond, end_to_end, percentile
    job = run.prepare("measured")
    measured = run.measure(job, seconds=run.seconds)
    setups = [measured["setup_s"]]
    for index in range(SETUP_SAMPLES):
        sample = dict(job, mode="setup", dirs=run.fresh_dirs(f"setup{index}"))
        setups.append(run.spawn(sample)["setup_s"])
    ops = measured["ops"]
    completed, failed = _ops_summary(ops)
    if not completed:
        raise RunFailed("no operation completed")
    seconds = [op["seconds"] for op in completed]
    metrics = end_to_end(setups, measured["peak_rss_mb"], seconds)
    n = len(seconds)
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "measured process",
             "op_s_p50": f"n={n} operations"}
    for name, metric in metrics.items():
        print(f"  {name:<18} {metric['value']:>12.6g} {metric['unit']:<9}"
              f" ({notes[name]})")
    # Not in the JSON line: p90 needs 100 samples to leave ten beyond it,
    # and only the simulating workloads ask for simulated cycles.
    p90_note = "" if n >= 100 else "; under 100 samples, not a p90"
    print(f"  {'op_s_p90':<18} {percentile(seconds, 90):>12.6g} {'s':<9}"
          f" (n={n} operations, {beyond(seconds, 90)} beyond{p90_note})")
    cycles = sum(op["cycles"] for op in completed)
    if cycles:
        print(f"  {'sim_cycles_per_s':<18} {cycles / math.fsum(seconds):>12.6g}"
              f" {'cycles/s':<9} (n={n} operations, {cycles} simulated"
              " cycles asked for)")
    print(f"  failed {failed} of {len(ops)} operations"
          f" ({100.0 * failed / len(ops):.1f}%)")
    _print_ops(ops, run.seed != DEFAULT_SEED)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def _traced(run: Run) -> dict:
    count = run.inputs["traced_ops"]
    plain = run.measure(run.prepare("untraced"), count=count)
    traced = run.measure(run.prepare("traced"), count=count, trace=True)
    plain_digests = [op["digest"] for op in plain["ops"]]
    traced_digests = [op["digest"] for op in traced["ops"]]
    completed, failed = _ops_summary(traced["ops"])
    differ = sum(plain != traced for plain, traced
                 in zip(plain_digests, traced_digests))
    same = differ == 0 and len(plain_digests) == len(traced_digests)
    overhead = (sum(op["seconds"] for op in traced["ops"])
                / sum(op["seconds"] for op in plain["ops"]) - 1.0)
    metrics = traced["layers"]
    metrics["trace.overhead_frac"]["value"] = overhead
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  traced {len(traced['ops'])} operations; outputs "
          + ("match" if same else "DIFFER from") + " the untraced run")
    print(f"  failed {failed} of {len(traced['ops'])} operations")
    _print_ops(traced["ops"], run.seed != DEFAULT_SEED)
    return {"correct": failed == 0 and same,
            "attempted": len(traced["ops"]),
            "failed": failed + differ, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"),
                        default="default",
                        help="tiny runs every workload in seconds (tests)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from e2ebench.inputs import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmark needs the program in src/repro next to perfbench/",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace} size {args.size}")
    run = Run(args.workload, args.seed, args.seconds, args.size)
    try:
        result = _traced(run) if args.trace else _untraced(run)
        for line in run.probe():
            print(f"  serving-policy {line['policy']:<18} "
                  + ("completes" if line["completes"] else "FAILS")
                  + f": {line['detail']}")
    except RunFailed as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 3
    finally:
        run.close()
    from e2ebench.measure import result_line
    print(result_line(**result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
