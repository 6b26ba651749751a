"""Determinism and equivalence tests for the parallel sweep executor."""

import json
import os

import pytest

from repro.config import FAST_GPU
from repro.harness.cache import CaseCache, record_to_dict
from repro.harness.expdb import ExperimentDB
from repro.harness.parallel import ParallelCaseRunner, resolve_workers
from repro.harness.runner import CaseRunner, CaseSpec
from repro.kernels import get_kernel
from repro.qos import QoSPolicy
from repro.sim import GPUSimulator, LaunchedKernel

CYCLES = 4000

SPECS = [
    CaseSpec.pair("sgemm", "lbm", 0.5, "rollover"),
    CaseSpec.pair("mri-q", "spmv", 0.65, "spart"),
    CaseSpec.trio(("sgemm", "lbm", "mri-q"), 1, 0.5, "rollover"),
]


class TestSimulatorDeterminism:
    def test_identical_results_across_runs(self):
        results = []
        for _ in range(2):
            kernels = [
                LaunchedKernel(get_kernel("sgemm"), is_qos=True,
                               ipc_goal=100.0),
                LaunchedKernel(get_kernel("lbm")),
            ]
            sim = GPUSimulator(FAST_GPU, kernels, QoSPolicy("rollover"))
            sim.run(6000)
            results.append(sim.result())
        assert results[0] == results[1]


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_non_integer_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'four'"):
            resolve_workers()


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def serial_records(self):
        return CaseRunner(FAST_GPU, CYCLES).sweep(SPECS)

    def test_parallel_equals_serial_record_for_record(self, serial_records):
        parallel = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2)
        assert parallel.sweep(SPECS) == serial_records

    def test_single_worker_equals_serial(self, serial_records):
        parallel = ParallelCaseRunner(FAST_GPU, CYCLES, workers=1)
        assert parallel.sweep(SPECS) == serial_records

    def test_order_follows_input_not_completion(self, serial_records):
        parallel = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2)
        reversed_records = parallel.sweep(list(reversed(SPECS)))
        assert reversed_records == list(reversed(serial_records))

    def test_duplicate_specs_simulate_once(self):
        parallel = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2)
        records = parallel.sweep([SPECS[0], SPECS[0]])
        assert records[0] is records[1]
        assert parallel.cached_cases == 1

    def test_sweep_seeds_isolated_memo(self):
        parallel = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2)
        parallel.sweep(SPECS[:1])
        assert set(parallel._isolated) >= {"sgemm", "lbm"}

    def test_sweep_through_cache_round_trip(self, tmp_path, serial_records):
        cold = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2,
                                  cache=CaseCache(tmp_path))
        assert cold.sweep(SPECS) == serial_records
        warm_cache = CaseCache(tmp_path)
        warm = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2,
                                  cache=warm_cache)
        assert warm.sweep(SPECS) == serial_records
        assert warm_cache.hits >= len(SPECS)


class TestTelemetrySweepEquivalence:
    """Telemetry streams must be identical between the serial and parallel
    runners: workers are throwaway serial runners, so the only way this
    fails is nondeterminism in the simulator itself."""

    @pytest.fixture(scope="class")
    def serial_telemetry(self):
        runner = CaseRunner(FAST_GPU, CYCLES, telemetry=True)
        return runner.sweep(SPECS)

    def test_parallel_telemetry_matches_serial(self, serial_telemetry):
        parallel = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2,
                                      telemetry=True)
        records = parallel.sweep(SPECS)
        assert records == serial_telemetry
        for record in records:
            assert record.telemetry  # streams actually attached

    def test_telemetry_off_records_carry_no_stream(self, serial_telemetry):
        plain = CaseRunner(FAST_GPU, CYCLES).sweep(SPECS)
        for lean, full in zip(plain, serial_telemetry):
            assert lean.telemetry == ()
            assert full.telemetry != ()
            # Outcomes are unaffected by recording.
            assert lean.kernels == full.kernels
            assert lean.cycles == full.cycles

    def test_telemetry_survives_cache_round_trip(self, tmp_path,
                                                 serial_telemetry):
        cold = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2,
                                  telemetry=True, cache=CaseCache(tmp_path))
        assert cold.sweep(SPECS) == serial_telemetry
        warm_cache = CaseCache(tmp_path)
        warm = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2,
                                  telemetry=True, cache=warm_cache)
        assert warm.sweep(SPECS) == serial_telemetry
        assert warm_cache.hits >= len(SPECS)


class _DiesComputingACase:
    """A pool worker's runner that exits the way a killed process does
    (``os._exit``) when it starts the first co-run case any worker of the
    sweep computes; it writes ``marker`` first, so only one worker dies
    and the test can tell it did.  Isolated denominators run as usual."""

    def __init__(self, runner, marker):
        self.runner = runner
        self.marker = marker

    def _simulate_isolated(self, name):
        return self.runner._simulate_isolated(name)

    def _compute(self, spec):
        try:
            open(self.marker, "x").close()
        except FileExistsError:
            return self.runner._compute(spec)
        os._exit(1)


class _RunnerWithADyingWorker(ParallelCaseRunner):
    """The dying behaviour rides in the runner ``_pool_worker`` hands to
    the pool, so it reaches the workers under any start method."""

    def __init__(self, *args, marker, **kwargs):
        super().__init__(*args, **kwargs)
        self.marker = marker

    def _pool_worker(self):
        return _DiesComputingACase(super()._pool_worker(), self.marker)


class TestSerialFallback:
    """A pool the platform refuses, or one whose workers die mid-sweep,
    degrades the sweep to the in-process claim loop: same records, and
    the experiment still completes."""

    @pytest.fixture(scope="class")
    def serial_records(self):
        return CaseRunner(FAST_GPU, CYCLES).sweep(SPECS)

    def test_parallel_sweep_finishes_serially(self, tmp_path, unusable_pool,
                                              serial_records):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        runner = ParallelCaseRunner(FAST_GPU, CYCLES, workers=2, expdb=db)
        records = runner.sweep(SPECS)
        assert unusable_pool  # a pool was really attempted
        assert (json.dumps([record_to_dict(r) for r in records])
                == json.dumps([record_to_dict(r) for r in serial_records]))
        assert db.experiment(runner.experiment_log[0][0])["status"] == "done"

    def test_worker_killed_mid_claim(self, tmp_path, serial_records):
        # A worker process exits while computing a case it claimed: the
        # pool breaks, the sweep hands the claimed cases back and finishes
        # them in-process, with the records a serial sweep gives.
        db = ExperimentDB(tmp_path / "exp.sqlite")
        marker = tmp_path / "worker-died"
        runner = _RunnerWithADyingWorker(FAST_GPU, CYCLES, workers=2,
                                         expdb=db, marker=str(marker))
        records = runner.sweep(SPECS)
        assert marker.exists()  # a worker really died
        assert (json.dumps([record_to_dict(r) for r in records])
                == json.dumps([record_to_dict(r) for r in serial_records]))
        experiment_id = runner.experiment_log[0][0]
        assert [row["status"] for row in db.cases(experiment_id)] == \
            ["done"] * len(SPECS)
        assert db.experiment(experiment_id)["status"] == "done"
