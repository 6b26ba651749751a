"""The layers stay apart at run time, not only in source.

LAY001 checks the import contracts on the source's import statements.
These tests check what a fresh interpreter actually loads: the lint path
loads only ``repro.analysis``; the experiment store, the serving runner,
the engine and the policy packages none of the packages their contracts
forbid; the case store and the commands that read the stores no
simulator; and the case runner none of the figure drivers.  They also pin
the lazy exports of ``repro`` and ``repro.harness`` (PEP 562
``__getattr__``) to the objects of the modules they come from.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.harness
from repro.analysis.rules.layering import IMPORT_CONTRACTS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

LIST_LOADED = """
import json, sys
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
"""


def loaded_modules(script):
    """The ``repro`` modules a fresh interpreter has loaded after ``script``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script + LIST_LOADED],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def under(module, packages):
    return any(module == package or module.startswith(package + ".")
               for package in packages)


class TestRunTimeBoundaries:
    def test_lint_loads_only_the_analysis_package(self):
        loaded = loaded_modules(
            "import repro.analysis.driver\n"
            "from repro.analysis.core import all_rules\n"
            "all_rules()\n"
            "import repro.analysis.cli\n")
        assert "repro.analysis.rules.layering" in loaded
        assert [module for module in loaded if module != "repro"
                and not under(module, ["repro.analysis"])] == []

    @pytest.mark.parametrize("module", [
        "repro.harness.expdb", "repro.serve.runner", "repro.sim.engine",
        "repro.qos"])
    def test_module_loads_nothing_its_contracts_forbid(self, module):
        forbidden = [package for contract in IMPORT_CONTRACTS
                     if under(module, contract.packages)
                     for package in contract.forbidden]
        loaded = loaded_modules(f"import {module}\n")
        assert module in loaded and forbidden
        assert [name for name in loaded if under(name, forbidden)] == []

    @pytest.mark.parametrize("script", [
        "import repro.harness.cache\n",
        "from repro.cli import main\nassert main(['exp', 'list']) == 0\n",
        "from repro.cli import main\nassert main(['cache', 'stats']) == 0\n",
    ], ids=["import repro.harness.cache", "repro exp list",
            "repro cache stats"])
    def test_store_access_loads_no_simulator(self, script, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path / "exp.sqlite"))
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        loaded = loaded_modules(script)
        assert "repro.harness.cache" in loaded
        assert [module for module in loaded if under(
            module, ["repro.sim", "repro.harness.runner"])] == []

    def test_case_runner_loads_no_figure_driver(self):
        loaded = loaded_modules("import repro.harness.runner\n")
        drivers = [f"repro.harness.{name}" for name in
                   ("experiments", "metrics", "report", "presets",
                    "parallel")]
        assert "repro.harness.runner" in loaded
        assert [module for module in loaded if under(module, drivers)] == []

    def test_repro_lint_command_loads_no_simulator_or_harness(self):
        loaded = loaded_modules(
            "from repro.cli import main\n"
            "assert main(['lint', '--list-rules']) == 0\n")
        assert "repro.analysis.cli" in loaded
        assert [module for module in loaded
                if under(module, ["repro.sim", "repro.harness"])] == []

    @pytest.mark.parametrize("package", ["repro", "repro.harness"])
    def test_importing_a_package_loads_none_of_its_exports(self, package):
        assert loaded_modules(f"import {package}\n") == (
            ["repro"] if package == "repro" else ["repro", "repro.harness"])


@pytest.mark.parametrize("package", [repro, repro.harness],
                         ids=["repro", "repro.harness"])
class TestLazyExports:
    def test_every_export_is_the_defining_modules_object(self, package):
        assert set(package._EXPORTS) <= set(package.__all__)
        for name in package.__all__:
            if name in package._EXPORTS:
                module = importlib.import_module(package._EXPORTS[name])
                assert getattr(package, name) is getattr(module, name), name
            elif name != "__version__":
                submodule = importlib.import_module(
                    f"{package.__name__}.{name}")
                assert getattr(package, name) is submodule, name

    def test_star_import_binds_every_export(self, package):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error_naming_it(self, package):
        with pytest.raises(AttributeError, match="'nope'"):
            package.nope
        assert not hasattr(package, "nope")

    def test_dir_lists_every_export(self, package):
        assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("script, module", [
    ("import repro\n"
     "assert repro.sim.GPUSimulator.__name__ == 'GPUSimulator'\n",
     "repro.sim.engine"),
    ("import repro.harness\n"
     "suite = repro.harness.experiments.ExperimentSuite\n"
     "assert suite.__name__ == 'ExperimentSuite'\n",
     "repro.harness.experiments"),
], ids=["repro.sim", "repro.harness.experiments"])
def test_submodule_resolves_on_first_access(script, module):
    assert module in loaded_modules(script)
