"""Entry point of every process the benchmark starts.

``python -m e2ebench.child JOB.json`` reads a job written by ``run.py``
and writes its result next to it (``JOB.json`` -> ``JOB.out.json``).
The job's ``mode`` is one of:

* ``measure`` — set up, then run operations in a closed loop (the next
  starts when the previous returns): whole rounds of the operation list
  while another round at twice the last one's duration still fits in
  ``seconds`` (at least one round), or
  exactly ``count`` operations; with ``trace`` set, every layer is
  wrapped before set-up;
* ``setup`` — set up and stop: one more ``setup_s`` sample;
* ``fixture`` — fill the rerun-warm store (outside the measured process);
* ``probe`` — serve a short stream under every sharing policy and report
  which complete (the serving-policy disclosure).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from .workloads import WORKLOADS


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn stamp and this
    # process's stamps share one time base.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_op(workload, op: dict, recorder=None, index: int = 0) -> tuple:
    """Run one timed operation; returns its entry and output."""
    entry = {"key": op["key"], "ok": False, "error": None, "digest": None,
             "cycles": workload.cycles(op)}
    if recorder is not None:
        recorder.op_id = index
        span = recorder.enter("op")
    start = _clock()
    try:
        output = workload.run(op)
    except Exception as error:  # a failed operation, counted, not fatal
        entry["error"] = f"raised {error!r}"
        output = None
    finally:
        entry["seconds"] = _clock() - start
        if recorder is not None:
            recorder.exit(span)
            recorder.op_id = -1
    return entry, output


def _check_op(workload, op: dict, entry: dict, output,
              reference: dict) -> dict:
    """Digest and check an operation's output (outside its timing)."""
    if entry["error"] is not None:
        return entry
    try:
        entry["digest"] = workload.digest(op, output)
        workload.check(op, output)
    except Exception as error:
        entry["error"] = f"check failed: {error}"
        return entry
    expected = reference.get(op["key"])
    if expected is not None and expected != entry["digest"]:
        entry["error"] = (f"digest {entry['digest']} differs from the "
                          f"reference {expected}")
        return entry
    entry["ok"] = True
    return entry


def measure(job: dict) -> dict:
    recorder = installed = None
    if job.get("trace"):
        from .layertrace import Recorder, install
        recorder = Recorder()
        installed = install(recorder)
    workload = WORKLOADS[job["workload"]](job)
    workload.setup()
    setup_s = _clock() - job["spawn_clock"]
    result = {"setup_s": setup_s}
    if job["mode"] == "setup":
        return result
    ops = job["inputs"]["ops"]
    reference = job.get("reference", {})
    done = []
    if "count" in job:
        # A traced run keeps its outputs until the wrappers are gone, so
        # digesting them is not charged to the program's layers.
        pending = []
        for index in range(job["count"]):
            round_index, position = divmod(index, len(ops))
            if position == 0 and round_index > 0:
                workload.new_round(round_index)
            pending.append((ops[position],)
                           + _run_op(workload, ops[position], recorder, index))
        if installed is not None:
            installed.restore()
        done = [_check_op(workload, op, entry, output, reference)
                for op, entry, output in pending]
    else:
        # Whole rounds only: every run then holds k copies of the same
        # operations, so the median does not depend on where time ran out.
        # Another round starts only if it would end within ``seconds`` even
        # at twice the last round's duration, so host speed does not flip
        # long-round workloads between one and two rounds.
        start = _clock()
        round_index = 0
        while True:
            round_start = _clock()
            if round_index > 0:
                workload.new_round(round_index)
            for op in ops:
                done.append(_check_op(workload, op, *_run_op(workload, op),
                                      reference))
            round_index += 1
            now = _clock()
            if now - start + 2 * (now - round_start) > job["seconds"]:
                break
    result["ops"] = done
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        from .layertrace import layer_metrics
        result["layers"] = layer_metrics(recorder, 0.0)
    return result


def fixture(job: dict) -> dict:
    """Fill the rerun-warm store: the warm operation, run once against
    empty stores, simulates and stores every case it then reads."""
    workload = WORKLOADS["rerun-warm"](job)
    workload.setup()
    op = job["inputs"]["ops"][0]
    return {"digest": workload.digest(op, workload.run(op))}


def probe(job: dict) -> dict:
    """Serve a short stream under every sharing policy."""
    from repro.config import FAST_GPU
    from repro.harness.runner import POLICY_NAMES
    from repro.serve.runner import ServeRunner, ServeSpec
    spec = job["spec"]
    lines = []
    for policy in POLICY_NAMES:
        payload = dict(spec, policy=policy)
        try:
            outcome = ServeRunner(FAST_GPU, workers=1).run_spec(
                ServeSpec.from_payload(payload))
        except Exception as error:
            frame = traceback.extract_tb(error.__traceback__)[-1]
            where = frame.filename.split("/src/")[-1]
            lines.append({"policy": policy, "completes": False,
                          "detail": f"raises {type(error).__name__}: {error}"
                                    f" at {where}:{frame.lineno}"})
        else:
            lines.append({"policy": policy, "completes": True,
                          "detail": f"served {outcome.generated} requests "
                                    f"to the {payload['horizon_cycles']}-cycle"
                                    " horizon"})
    return {"policies": lines}


def main(argv) -> int:
    job_path = argv[1]
    with open(job_path) as stream:
        job = json.load(stream)
    mode = job["mode"]
    if mode in ("measure", "setup"):
        result = measure(job)
    elif mode == "fixture":
        result = fixture(job)
    else:
        result = probe(job)
    with open(job_path[:-len(".json")] + ".out.json", "w") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
