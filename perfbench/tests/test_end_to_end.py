"""Every workload end to end at the tiny size, untraced and traced."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from e2ebench.inputs import WORKLOADS
from e2ebench.layertrace import PER_LAYER

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_a_correct_result(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace == "1":
        assert list(result["metrics"]) == [name for name, _u, _b in PER_LAYER]
        assert any("outputs match the untraced run" in line for line in lines)
    else:
        assert list(result["metrics"]) == ["setup_s", "peak_rss_mb",
                                           "op_s_p50"]
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())
    assert sum("serving-policy" in line for line in lines) >= 8
    assert not (ROOT / ".perfbench").exists() or not any(
        (ROOT / ".perfbench").iterdir())


def test_traced_layers_are_zero_where_the_layer_does_not_run():
    done = _run(ROOT, "--workload", "lint-edit", "--seed", "1", "--seconds",
                "1", "--trace", "1", "--size", "tiny")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["analysis.flow_s"]["value"] > 0
    for name, metric in metrics.items():
        if name.startswith(("sim.", "serve.", "harness.", "qos.",
                            "controllers.")):
            assert metric["value"] == 0, name


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", "corun-cold", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
