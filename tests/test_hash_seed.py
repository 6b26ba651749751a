"""Simulation outputs do not depend on the interpreter's hash seed.

A set or dict whose iteration order follows string hashes, anywhere on a
path that feeds a result, would make records differ between processes.
This runs a co-run sweep with telemetry (``rollover``, ``spart``, ``pid``),
an isolated run and one served stream in fresh interpreters under two
``PYTHONHASHSEED`` values and compares a digest of everything they return.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

DIGEST = """
import hashlib, json
from repro.config import FAST_GPU
from repro.harness.cache import record_to_dict
from repro.harness.runner import CaseRunner, CaseSpec
from repro.serve.runner import ServeRunner, ServeSpec

runner = CaseRunner(FAST_GPU, 3000, telemetry=True)
records = runner.sweep([CaseSpec.pair("sgemm", "lbm", 0.6, policy)
                        for policy in ("rollover", "spart", "pid")])
stream = ServeSpec(process="poisson",
                   params=(("mean_interarrival_cycles", 3000.0),),
                   classes=(("rt", "mri-q", 8000, 2, 1.0),
                            ("bg", "sad", 16000, 2, 1.0)),
                   seed=0, horizon_cycles=30000)
outputs = {
    "corun": [record_to_dict(record) for record in records],
    "isolated": CaseRunner(FAST_GPU, 3000).isolated_ipc("mri-q"),
    "served": ServeRunner(FAST_GPU).run_spec(stream).to_value(),
}
text = json.dumps(outputs, sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def digest_under(seed):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed),
               REPRO_CACHE="0")
    result = subprocess.run([sys.executable, "-c", DIGEST],
                            capture_output=True, text=True, env=env,
                            timeout=300, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()[-1]


def test_outputs_match_under_two_hash_seeds():
    first = digest_under(0)
    assert len(first) == len(hashlib.sha256().hexdigest())
    assert digest_under(1) == first
