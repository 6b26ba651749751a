"""``repro-gpu-qos exp``: operate on the persistent experiment store.

Subcommands::

    exp list              every registered experiment (id, status, progress)
    exp show <id>         grid summary and per-status case counts
    exp show --diff A B   grid-level diff: machine/cycles/telemetry deltas,
                          specs only in one grid, status drift on shared specs
    exp resume <id>       pull the remaining pending cases of an experiment
    exp gc                drop experiments stale under the current code salt

``resume`` rebuilds the exact runner from the stored grid — a co-run
runner from machine config, cycle counts, telemetry flag and spec list, or
a serving runner from machine config and serving specs, by the grid's kind
— and re-enters the ordinary pull loop: cases already done are skipped,
cases left ``running``/``failed`` by the interrupted run are released back
to pending, and the records produced are byte-identical to an uninterrupted
sweep (the simulator is deterministic and case identity is content-hashed).

An experiment registered under a different code salt cannot be resumed:
the cached records its done cases point to are unreachable after a code
edit, so resuming would silently mix toolchains.  ``exp gc`` deletes such
experiments (and, with ``--done``, completed ones).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gpu-qos exp",
        description="Inspect, resume and garbage-collect the persistent "
                    "experiment store (REPRO_EXPDB)")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list registered experiments")
    show = commands.add_parser(
        "show", help="describe one experiment, or diff two")
    show.add_argument("experiment_id")
    show.add_argument("other", nargs="?", default=None,
                      help="second experiment id (with --diff)")
    show.add_argument("--diff", action="store_true",
                      help="compare two experiments at the grid level: "
                           "machine/cycles/telemetry differences, specs "
                           "only in one grid, and per-case status drift "
                           "on the shared specs")
    resume = commands.add_parser(
        "resume", help="run the remaining pending cases of an experiment")
    resume.add_argument("experiment_id")
    resume.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: REPRO_WORKERS "
                             "or cpu_count-1)")
    resume.add_argument("--no-cache", action="store_true",
                        help="do not read or write the persistent case cache")
    gc = commands.add_parser(
        "gc", help="drop experiments whose code salt no longer matches")
    gc.add_argument("--done", action="store_true",
                    help="also drop completed experiments")
    return parser


def _open_store():
    from repro.harness.expdb import open_default_expdb
    db = open_default_expdb()
    if db is None:
        print("experiment store disabled by REPRO_EXPDB", file=sys.stderr)
    return db


def _progress(db, experiment_id: str) -> str:
    counts = db.case_counts(experiment_id)
    done = counts.get("done", 0)
    total = sum(counts.values())
    return f"{done}/{total}"


def _list_command(db) -> int:
    from repro.harness.cache import code_salt
    current_salt = code_salt()
    records = db.experiments()
    if not records:
        print("no experiments registered")
        return 0
    print(f"{'id':<18} {'status':<8} {'done':>9}  {'salt':<7} created")
    for record in records:
        salt = ("current" if record["code_salt"] == current_salt else "stale")
        created = time.strftime(  # repro: noqa=DET001
            "%Y-%m-%d %H:%M", time.localtime(record["created_at"]))
        print(f"{record['id']:<18} {record['status']:<8} "
              f"{_progress(db, record['id']):>9}  {salt:<7} {created}")
    return 0


def _show_command(db, experiment_id: str) -> int:
    from repro.harness.cache import SERVE_GRID_KIND, code_salt
    record = db.experiment(experiment_id)
    if record is None:
        print(f"unknown experiment {experiment_id!r}", file=sys.stderr)
        return 2
    grid = record["grid"]
    print(f"id:         {record['id']}")
    print(f"status:     {record['status']}")
    print(f"spec hash:  {record['spec_hash']}")
    salt_state = ("current" if record["code_salt"] == code_salt()
                  else "STALE (resume refused; run 'exp gc')")
    print(f"code salt:  {record['code_salt']} ({salt_state})")
    print(f"machine:    {grid['gpu']['num_sms']} SMs, "
          f"{grid['gpu']['num_mcs']} MCs, engine core "
          f"{grid['gpu']['engine_core']}")
    if grid.get("kind") == SERVE_GRID_KIND:
        horizons = sorted({spec["horizon_cycles"] for spec in grid["specs"]})
        print(f"horizon:    {', '.join(map(str, horizons))} cycles, "
              f"{len(grid['specs'])} serving specs")
    else:
        print(f"cycles:     {grid['cycles']} (+{grid['warmup']} warm-up), "
              f"telemetry {'on' if grid['telemetry'] else 'off'}")
    print(f"cases:      {record['total_cases']}")
    for status, count in sorted(db.case_counts(experiment_id).items()):
        print(f"  {status:<9} {count}")
    isolated = db.isolated_ipcs(experiment_id)
    if isolated:
        print(f"isolated:   {len(isolated)} denominators recorded "
              f"({', '.join(sorted(isolated))})")
    return 0


def _spec_label(payload: dict) -> str:
    """One-line human label for a stored CaseSpec payload."""
    parts = []
    for name, qos, goal in zip(payload.get("names", ()),
                               payload.get("qos", ()),
                               payload.get("goals", ())):
        mark = f"{name}*{goal}" if qos else name
        parts.append(mark)
    return f"{'+'.join(parts)} [{payload.get('policy', '?')}]"


def _spec_key(payload: dict) -> str:
    import json
    return json.dumps(payload, sort_keys=True)


def _diff_command(db, id_a: str, id_b: str) -> int:
    """Grid-level diff of two experiments: everything that can make two
    sweeps incomparable — machine, cycles, telemetry, the spec grids
    themselves — plus per-case status drift on the specs they share."""
    records = {}
    for experiment_id in (id_a, id_b):
        record = db.experiment(experiment_id)
        if record is None:
            print(f"unknown experiment {experiment_id!r}", file=sys.stderr)
            return 2
        records[experiment_id] = record
    a, b = records[id_a], records[id_b]
    print(f"A: {id_a}  (status {a['status']}, spec hash {a['spec_hash']})")
    print(f"B: {id_b}  (status {b['status']}, spec hash {b['spec_hash']})")
    if a["code_salt"] != b["code_salt"]:
        print(f"code salt:  A={a['code_salt']}  B={b['code_salt']}  "
              "(DIFFERENT toolchains — records are not comparable)")

    grid_a, grid_b = a["grid"], b["grid"]
    scalar_diffs = []
    gpu_keys = sorted(set(grid_a["gpu"]) | set(grid_b["gpu"]))
    for key in gpu_keys:
        va, vb = grid_a["gpu"].get(key), grid_b["gpu"].get(key)
        if va != vb:
            scalar_diffs.append((f"gpu.{key}", va, vb))
    for key in ("cycles", "warmup", "telemetry"):
        if grid_a.get(key) != grid_b.get(key):
            scalar_diffs.append((key, grid_a.get(key), grid_b.get(key)))
    if scalar_diffs:
        print("grid differences:")
        for key, va, vb in scalar_diffs:
            print(f"  {key:<18} A={va!r}  B={vb!r}")
    else:
        print("grid:       machine, cycles and telemetry identical")

    specs_a = {_spec_key(payload): payload for payload in grid_a["specs"]}
    specs_b = {_spec_key(payload): payload for payload in grid_b["specs"]}
    only_a = [specs_a[key] for key in specs_a if key not in specs_b]
    only_b = [specs_b[key] for key in specs_b if key not in specs_a]
    shared = [key for key in specs_a if key in specs_b]
    print(f"specs:      {len(shared)} shared, {len(only_a)} only in A, "
          f"{len(only_b)} only in B")
    for payload in only_a:
        print(f"  only A:   {_spec_label(payload)}")
    for payload in only_b:
        print(f"  only B:   {_spec_label(payload)}")

    if shared:
        status_a = {_spec_key(case["spec"]): case["status"]
                    for case in db.cases(id_a)}
        status_b = {_spec_key(case["spec"]): case["status"]
                    for case in db.cases(id_b)}
        drifted = [key for key in shared
                   if status_a.get(key) != status_b.get(key)]
        if drifted:
            print(f"status:     {len(drifted)} shared spec(s) differ")
            for key in drifted:
                print(f"  {_spec_label(specs_a[key])}: "
                      f"A={status_a.get(key, '?')}  "
                      f"B={status_b.get(key, '?')}")
        else:
            print("status:     every shared spec has the same case status")
    return 0


def _runner_for(grid: dict, db, workers: Optional[int], no_cache: bool):
    """The runner and spec list that re-enter a stored grid's pull loop:
    a serving runner for serving grids, a co-run runner otherwise."""
    from repro.config import gpu_config_from_dict
    from repro.harness.cache import SERVE_GRID_KIND, open_default_cache

    gpu = gpu_config_from_dict(grid["gpu"])
    cache = None if no_cache else open_default_cache()
    if grid.get("kind") == SERVE_GRID_KIND:
        from repro.serve.runner import ServeRunner, ServeSpec
        return (ServeRunner(gpu, cache=cache, expdb=db, workers=workers),
                [ServeSpec.from_payload(payload) for payload in grid["specs"]])
    from repro.harness.parallel import ParallelCaseRunner
    from repro.harness.runner import CaseSpec
    runner = ParallelCaseRunner(
        gpu, grid["cycles"], warmup_cycles=grid["warmup"], cache=cache,
        workers=workers, telemetry=bool(grid["telemetry"]), expdb=db)
    return runner, [CaseSpec.from_payload(payload)
                    for payload in grid["specs"]]


def _resume_command(db, experiment_id: str, workers: Optional[int],
                    no_cache: bool) -> int:
    from repro.harness.cache import code_salt

    record = db.experiment(experiment_id)
    if record is None:
        print(f"unknown experiment {experiment_id!r}", file=sys.stderr)
        return 2
    if record["code_salt"] != code_salt():
        print(f"refusing to resume {experiment_id}: registered under code "
              f"salt {record['code_salt']}, current is {code_salt()} "
              "(its cached results are unreachable; run 'exp gc')",
              file=sys.stderr)
        return 2
    before = db.case_counts(experiment_id)
    pending = sum(count for status, count in before.items()
                  if status != "done")
    runner, specs = _runner_for(record["grid"], db, workers, no_cache)
    records = runner.sweep(specs)
    after = db.case_counts(experiment_id)
    print(f"{experiment_id}: {after.get('done', 0)}/{len(records)} cases "
          f"done ({pending} were outstanding)", file=sys.stderr)
    return 0


def _gc_command(db, drop_done: bool) -> int:
    from repro.harness.cache import code_salt
    removed = db.gc(current_salt=code_salt(), drop_done=drop_done)
    print(f"dropped {removed} experiment(s)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    db = _open_store()
    if db is None:
        return 0
    try:
        if args.command == "list":
            return _list_command(db)
        if args.command == "show":
            if args.diff:
                if args.other is None:
                    print("error: show --diff needs two experiment ids",
                          file=sys.stderr)
                    return 2
                return _diff_command(db, args.experiment_id, args.other)
            if args.other is not None:
                print("error: a second experiment id needs --diff",
                      file=sys.stderr)
                return 2
            return _show_command(db, args.experiment_id)
        if args.command == "resume":
            return _resume_command(db, args.experiment_id, args.workers,
                                   args.no_cache)
        return _gc_command(db, args.done)
    finally:
        db.close()
