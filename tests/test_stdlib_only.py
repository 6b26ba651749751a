"""The package runs on the standard library alone.

A fresh interpreter computes the cache code salt, runs one short co-run
case through ``CaseRunner`` and serves one short ``ServeSpec`` through
``ServeRunner``, both against a case cache, and must never have imported
numpy along the way.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

from repro.config import FAST_GPU
from repro.harness.cache import CaseCache, code_salt
from repro.harness.runner import CaseRunner
from repro.serve.runner import ServeRunner, ServeSpec

cache_dir = sys.argv[1]
code_salt()
record = CaseRunner(FAST_GPU, 2000, 500, cache=CaseCache(cache_dir)).run_case(
    ("mri-q", "lbm"), (True, False), (0.5, None), "rollover")
assert record.cycles == 2000
spec = ServeSpec(process="poisson",
                 params=(("mean_interarrival_cycles", 1500.0),),
                 classes=(("rt", "mri-q", 8000, 1, 1.0),),
                 seed=0, horizon_cycles=6000)
outcome = ServeRunner(FAST_GPU, cache=CaseCache(cache_dir),
                      workers=1).run_spec(spec)
assert outcome.generated > 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_simulation_paths_never_import_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "cache")],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert result.returncode == 0, result.stderr
