"""Every module a simulation loads is covered by the code salt.

The stores key each result by a salt over the sources that can change it
(``repro.harness.cache.salted_paths``), so a module that a simulation
runs but the salt misses could change a result without moving its key.
SALT001/002 check the salt's coverage in source; this checks it at run
time.  A fresh interpreter runs co-run cases with their isolated
denominators (one quota scheme, Spart and a controller) and a served
stream, then lists the files of the ``repro`` modules it loaded: each
must be salted, apart from the exemptions below.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.harness.cache import salted_paths

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, pathlib, sys
from repro.config import FAST_GPU
from repro.harness.runner import CaseRunner, CaseSpec
from repro.serve.runner import ServeRunner, ServeSpec

runner = CaseRunner(FAST_GPU, 2000)
runner.sweep([CaseSpec.pair("mri-q", "lbm", 0.6, policy)
              for policy in ("rollover", "spart", "pid")])
assert runner._isolated, "no isolated denominator was simulated"
ServeRunner(FAST_GPU).run_spec(ServeSpec(
    process="poisson", params=(("mean_interarrival_cycles", 3000.0),),
    classes=(("rt", "mri-q", 8000, 2, 1.0), ("bg", "sad", 16000, 2, 1.0)),
    seed=0, horizon_cycles=20000))
root = pathlib.Path(sys.modules["repro"].__file__).resolve().parent
print(json.dumps(sorted(
    pathlib.Path(module.__file__).resolve().relative_to(root).as_posix()
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro."))))
"""

#: Loaded but not salted, with the reason each cannot change a result.
EXEMPT = {
    "__init__.py": "the package's lazy export table (PEP 562): it maps "
                   "names to modules and runs no simulation code",
    "harness/__init__.py": "the harness's lazy export table, as above",
}


def test_every_loaded_module_is_salted():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE="0",
               REPRO_EXPDB="0")
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            capture_output=True, text=True, env=env,
                            timeout=300, check=False)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert "sim/engine.py" in loaded and "serve/runner.py" in loaded
    salted = set(salted_paths())
    assert [path for path in loaded
            if path not in salted and path not in EXEMPT] == []
