"""Regenerate ``data/reference.json``: per workload, the output digest of
every operation the references cover (every co-run case any seed can
draw; the default seed's serving cases and warm grid; the lint findings).

    python3 perfbench/make_reference.py

Run it only when the program's outputs are meant to change; the
benchmark fails every operation whose digest differs from this file.
"""

from __future__ import annotations

import json
import sys

from e2ebench.inputs import SIZES, WORKLOADS, corun_universe
from run import DATA, DEFAULT_SEED, ROOT, Run


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reference = {}
    for workload in WORKLOADS:
        run = Run(workload, DEFAULT_SEED, 0, "default", budget=900.0)
        try:
            if workload == "corun-cold":
                run.inputs["ops"] = corun_universe(SIZES["default"])
            # The warm grid and the frozen tree's findings give one digest
            # per run; the cold workloads one per operation of the list.
            count = (1 if workload in ("rerun-warm", "lint-edit")
                     else len(run.inputs["ops"]))
            result = run.spawn(dict(run.prepare("reference"), mode="measure",
                                    count=count, reference={}))
        finally:
            run.close()
        failed = [op for op in result["ops"] if not op["ok"]]
        if failed:
            print(f"{workload}: {failed[0]['key']}: {failed[0]['error']}",
                  file=sys.stderr)
            return 1
        reference[workload] = {op["key"]: op["digest"]
                               for op in result["ops"]}
        print(f"{workload}: {len(reference[workload])} digests")
    (DATA / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
