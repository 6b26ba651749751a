"""Sweep interrupt/resume smoke: byte-identity of resumed experiments.

The experiment store's core promise is that a sweep interrupted at any
point and resumed later produces results byte-identical to an
uninterrupted run, without recomputing completed cases.  This script
checks that promise end to end, in one run, on two tiny grids that go
through the same claim loop: a figure-6-style co-run grid and a serving
load grid.  For each grid it

1. runs the grid clean (fresh store, no case cache) and serialises every
   result to canonical JSON;
2. runs the same grid in a fresh store with a fault injected at ~50% of
   the cases (:attr:`SweepRunner.fault_after` — the crash seam the tests
   use), leaving the experiment half done;
3. resumes it with a brand-new runner against the same store, then
   byte-compares the full result set against step 1.

Exit status is 0 only if, for both grids, the interrupted-then-resumed
bytes match the clean bytes exactly and the resume left the experiment
``done``.  CI runs this as the sweep-resume smoke step::

    PYTHONPATH=src python benchmarks/resume_smoke.py
    PYTHONPATH=src python benchmarks/resume_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.config import FAST_GPU
from repro.harness.cache import record_to_dict
from repro.harness.expdb import DONE, ExperimentDB
from repro.harness.parallel import ParallelCaseRunner
from repro.harness.runner import (CaseRecord, CaseRunner, CaseSpec,
                                  SweepInterrupted)
from repro.serve.runner import ServeRunner, ServeSpec

CYCLES = 4_000

SPECS = [
    CaseSpec.pair("sgemm", "lbm", 0.5, "rollover"),
    CaseSpec.pair("mri-q", "spmv", 0.65, "rollover"),
    CaseSpec.pair("sgemm", "lbm", 0.8, "spart"),
    CaseSpec.pair("stencil", "histo", 0.5, "rollover"),
]

#: A Poisson load sweep of two short request classes on the fast machine.
SERVE_SPECS = [
    ServeSpec(process="poisson",
              params=(("mean_interarrival_cycles", float(load)),),
              classes=(("rt", "mri-q", 8000, 1, 1.0),
                       ("bg", "sad", 16000, 1, 1.0)),
              seed=0, horizon_cycles=10_000)
    for load in (2500, 1500, 1000)]


def dump(results) -> str:
    """Canonical bytes of a co-run record or serving outcome list."""
    return json.dumps([record_to_dict(result)
                       if isinstance(result, CaseRecord) else result.to_value()
                       for result in results], sort_keys=True)


def make_case_runner(workers: int, db: ExperimentDB):
    if workers > 1:
        return ParallelCaseRunner(FAST_GPU, CYCLES, workers=workers,
                                  expdb=db)
    return CaseRunner(FAST_GPU, CYCLES, expdb=db)


def make_serve_runner(workers: int, db: ExperimentDB):
    return ServeRunner(FAST_GPU, workers=workers, expdb=db)


def check(label: str, make_runner, specs, workers: int, tmp: Path) -> bool:
    """Clean sweep vs interrupted-then-resumed sweep of one grid."""
    clean_db = ExperimentDB(tmp / f"{label}-clean.sqlite")
    clean = dump(make_runner(1, clean_db).sweep(specs))
    clean_db.close()
    print(f"[{label} clean] {len(specs)} cases swept")

    db = ExperimentDB(tmp / f"{label}-resumable.sqlite")
    runner = make_runner(workers, db)
    runner.fault_after = len(specs) // 2
    try:
        runner.sweep(specs)
    except SweepInterrupted:
        pass
    else:
        print(f"FAIL: fault injection did not interrupt the {label} sweep",
              file=sys.stderr)
        return False
    experiment_id = runner.experiment_log[0][0]
    counts = db.case_counts(experiment_id)
    print(f"[{label} interrupted] {experiment_id}: "
          f"{counts.get(DONE, 0)}/{len(specs)} cases done at fault")

    resumed = dump(make_runner(workers, db).sweep(specs))
    status = db.experiment(experiment_id)["status"]
    db.close()
    print(f"[{label} resumed] experiment status: {status}")

    if status != DONE:
        print(f"FAIL: resumed {label} experiment is not marked done",
              file=sys.stderr)
        return False
    if resumed != clean:
        print(f"FAIL: resumed {label} results differ from the clean sweep",
              file=sys.stderr)
        return False
    print(f"OK: {label} interrupt at {len(specs) // 2}/{len(specs)} + "
          "resume is byte-identical to the clean sweep")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1,
                        help="pool width for the interrupted/resumed runs "
                             "(1 = serial; default: 1)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        ok = [check(label, make_runner, specs, args.workers, Path(tmp))
              for label, make_runner, specs in (
                  ("co-run", make_case_runner, SPECS),
                  ("serving", make_serve_runner, SERVE_SPECS))]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
