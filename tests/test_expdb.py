"""Experiment store: claim protocol, interrupt/resume, provenance, CLI.

The load-bearing guarantees under test:

* claim-by-update never hands the same case to two pullers;
* an interrupted sweep (fault-injected via ``CaseRunner.fault_after``)
  resumed by a fresh runner produces records byte-identical to an
  uninterrupted run — serial and parallel, telemetry on and off;
* re-running a completed experiment performs zero new simulations and
  writes nothing to the store.
"""

import json

import pytest

from repro.config import FAST_GPU
from repro.harness.cache import (CaseCache, code_salt, experiment_id_for,
                                 experiment_spec_hash, record_to_dict,
                                 sweep_grid_payload)
from repro.harness.expdb import (ExperimentDB, default_expdb_path,
                                 expdb_disabled_by_env, open_default_expdb)
from repro.harness.parallel import ParallelCaseRunner
from repro.harness.runner import CaseRunner, CaseSpec, SweepInterrupted
from repro.serve.runner import ServeRunner, ServeSpec

CYCLES = 4000

SPECS = [
    CaseSpec.pair("sgemm", "lbm", 0.5, "rollover"),
    CaseSpec.pair("mri-q", "spmv", 0.65, "spart"),
    CaseSpec.pair("sgemm", "spmv", 0.65, "rollover"),
    CaseSpec.trio(("sgemm", "lbm", "mri-q"), 1, 0.5, "rollover"),
]

ROWS = [({"case": index}, f"key-{index}") for index in range(4)]


def register_demo(db, experiment_id="exp-demo", salt="salt-a"):
    return db.register(experiment_id, "hash-" + experiment_id, salt,
                       {"specs": [spec for spec, _ in ROWS]}, ROWS)


class TestStore:
    def test_register_is_idempotent(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        assert register_demo(db) is True
        claim = db.claim_next("exp-demo", "w0")
        assert claim == (0, {"case": 0})
        # Re-registering the same id neither duplicates cases nor resets
        # their statuses.
        assert register_demo(db) is False
        assert db.case_counts("exp-demo") == {"pending": 3, "running": 1}

    def test_claim_order_and_payloads(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        register_demo(db)
        indices = []
        while True:
            claim = db.claim_next("exp-demo", "w0")
            if claim is None:
                break
            index, spec = claim
            assert spec == {"case": index}
            indices.append(index)
            db.mark_done("exp-demo", index)
        assert indices == [0, 1, 2, 3]

    def test_no_double_claim_across_connections(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        first, second = ExperimentDB(path), ExperimentDB(path)
        register_demo(first)
        claims = []
        for db in (first, second, first, second, second):
            claim = db.claim_next("exp-demo", f"w{id(db) % 2}")
            if claim is not None:
                claims.append(claim[0])
        assert sorted(claims) == [0, 1, 2, 3]  # four cases, four claims

    def test_release_stale_reclaims_running_and_failed(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        register_demo(db)
        db.claim_next("exp-demo", "w0")
        index, _ = db.claim_next("exp-demo", "w0")
        db.mark_failed("exp-demo", index, "boom")
        assert db.case_counts("exp-demo") == {
            "failed": 1, "pending": 2, "running": 1}
        assert db.release_stale("exp-demo") == 2
        assert db.case_counts("exp-demo") == {"pending": 4}

    def test_finish_requires_every_case_done(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        register_demo(db)
        assert db.finish("exp-demo") is False
        while True:
            claim = db.claim_next("exp-demo", "w0")
            if claim is None:
                break
            db.mark_done("exp-demo", claim[0])
        assert db.finish("exp-demo") is True
        assert db.experiment("exp-demo")["status"] == "done"

    def test_isolated_round_trip(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        register_demo(db)
        db.record_isolated("exp-demo", "sgemm", "iso-key", 123.5)
        db.record_isolated("exp-demo", "lbm", "iso-key2", 45.25)
        assert db.isolated_ipcs("exp-demo") == {"sgemm": 123.5, "lbm": 45.25}
        assert db.isolated_ipcs("exp-other") == {}

    def test_gc_drops_stale_salts_and_optionally_done(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        register_demo(db, "exp-current", salt="salt-a")
        register_demo(db, "exp-stale", salt="salt-b")
        assert db.gc(current_salt="salt-a") == 1
        assert db.experiment("exp-stale") is None
        assert db.cases("exp-stale") == []
        while True:
            claim = db.claim_next("exp-current", "w0")
            if claim is None:
                break
            db.mark_done("exp-current", claim[0])
        db.finish("exp-current")
        assert db.gc(current_salt="salt-a", drop_done=True) == 1
        assert db.experiments() == []

    def test_stats_shape(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        register_demo(db)
        stats = db.stats()
        assert stats["experiments"] == {"pending": 1}
        assert stats["cases"] == {"pending": 4}

    def test_env_disable_and_relocation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXPDB", "0")
        assert expdb_disabled_by_env()
        assert open_default_expdb() is None
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path / "custom.sqlite"))
        assert not expdb_disabled_by_env()
        assert default_expdb_path() == tmp_path / "custom.sqlite"
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path))
        assert default_expdb_path() == tmp_path / "experiments.sqlite"


class TestExperimentIdentity:
    def grid(self, specs=SPECS, telemetry=False):
        return sweep_grid_payload(FAST_GPU, CYCLES, 2000, telemetry,
                                  [spec.payload() for spec in specs])

    def test_same_grid_same_id(self):
        first, second = self.grid(), self.grid()
        assert experiment_spec_hash(first) == experiment_spec_hash(second)
        assert (experiment_id_for(experiment_spec_hash(first))
                == experiment_id_for(experiment_spec_hash(second)))

    def test_identity_tracks_grid_content(self):
        base = experiment_spec_hash(self.grid())
        assert experiment_spec_hash(self.grid(SPECS[:2])) != base
        assert experiment_spec_hash(self.grid(telemetry=True)) != base
        reordered = list(reversed(SPECS))
        assert experiment_spec_hash(self.grid(reordered)) != base

    def test_id_embeds_hash_prefix(self):
        spec_hash = experiment_spec_hash(self.grid())
        assert experiment_id_for(spec_hash) == f"exp-{spec_hash[:12]}"

    def test_spec_payload_round_trip(self):
        for spec in SPECS:
            clone = CaseSpec.from_payload(
                json.loads(json.dumps(spec.payload())))
            assert clone == spec


def dump(records):
    """Byte-level form of a record list (the differential currency)."""
    return json.dumps([record_to_dict(record) for record in records],
                      sort_keys=True)


def interrupt_then_resume(tmp_path, runner_cls, telemetry, **runner_kwargs):
    """Fault a sweep at ~50%, resume with a fresh runner, return records."""
    db_path = tmp_path / "exp.sqlite"
    cache_dir = tmp_path / "cache"
    interrupted = runner_cls(FAST_GPU, CYCLES, cache=CaseCache(cache_dir),
                             telemetry=telemetry,
                             expdb=ExperimentDB(db_path), **runner_kwargs)
    interrupted.fault_after = len(SPECS) // 2
    with pytest.raises(SweepInterrupted):
        interrupted.sweep(SPECS)
    db = ExperimentDB(db_path)
    counts = db.case_counts(interrupted.experiment_log[0][0])
    assert counts.get("done", 0) < len(SPECS)  # genuinely mid-flight
    resumed = runner_cls(FAST_GPU, CYCLES, cache=CaseCache(cache_dir),
                         telemetry=telemetry, expdb=db, **runner_kwargs)
    records = resumed.sweep(SPECS)
    assert db.experiment(resumed.experiment_log[0][0])["status"] == "done"
    return records


class TestInterruptResume:
    @pytest.fixture(scope="class")
    def clean_records(self):
        return CaseRunner(FAST_GPU, CYCLES).sweep(SPECS)

    @pytest.fixture(scope="class")
    def clean_telemetry_records(self):
        return CaseRunner(FAST_GPU, CYCLES, telemetry=True).sweep(SPECS)

    def test_serial_resume_is_byte_identical(self, tmp_path, clean_records):
        records = interrupt_then_resume(tmp_path, CaseRunner, False)
        assert dump(records) == dump(clean_records)

    def test_serial_resume_with_telemetry(self, tmp_path,
                                          clean_telemetry_records):
        records = interrupt_then_resume(tmp_path, CaseRunner, True)
        assert dump(records) == dump(clean_telemetry_records)

    def test_parallel_resume_is_byte_identical(self, tmp_path, clean_records):
        records = interrupt_then_resume(tmp_path, ParallelCaseRunner, False,
                                        workers=2)
        assert dump(records) == dump(clean_records)

    def test_parallel_resume_with_telemetry(self, tmp_path,
                                            clean_telemetry_records):
        records = interrupt_then_resume(tmp_path, ParallelCaseRunner, True,
                                        workers=2)
        assert dump(records) == dump(clean_telemetry_records)

    def test_resume_without_case_cache_still_matches(self, tmp_path,
                                                     clean_records):
        """With the JSONL cache disabled, resume re-simulates done cases at
        assembly time — determinism keeps the records identical anyway."""
        db_path = tmp_path / "exp.sqlite"
        interrupted = CaseRunner(FAST_GPU, CYCLES,
                                 expdb=ExperimentDB(db_path))
        interrupted.fault_after = 2
        with pytest.raises(SweepInterrupted):
            interrupted.sweep(SPECS)
        resumed = CaseRunner(FAST_GPU, CYCLES, expdb=ExperimentDB(db_path))
        assert dump(resumed.sweep(SPECS)) == dump(clean_records)


class _Bomb:
    """Stand-in for GPUSimulator that detonates on construction."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a completed experiment re-ran a simulation")


class TestZeroNewSimulations:
    def test_completed_experiment_never_simulates_again(self, tmp_path,
                                                        monkeypatch):
        db_path, cache_dir = tmp_path / "exp.sqlite", tmp_path / "cache"
        warm = CaseRunner(FAST_GPU, CYCLES, cache=CaseCache(cache_dir),
                          expdb=ExperimentDB(db_path))
        baseline = warm.sweep(SPECS)
        monkeypatch.setattr("repro.harness.runner.GPUSimulator", _Bomb)
        for runner_cls, kwargs in ((CaseRunner, {}),
                                   (ParallelCaseRunner, {"workers": 2})):
            rerun = runner_cls(FAST_GPU, CYCLES, cache=CaseCache(cache_dir),
                               expdb=ExperimentDB(db_path), **kwargs)
            assert dump(rerun.sweep(SPECS)) == dump(baseline)

    def test_experiment_log_records_content_ids(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        runner = CaseRunner(FAST_GPU, CYCLES, expdb=db)
        runner.sweep(SPECS[:1])
        experiment_id, spec_hash = runner.experiment_log[0]
        assert experiment_id == experiment_id_for(spec_hash)
        record = db.experiment(experiment_id)
        assert record["spec_hash"] == spec_hash
        assert record["code_salt"] == code_salt()


class TestDoneRerunWritesNothing:
    """A rerun of a done experiment reads its status and writes nothing:
    no registration, no stale-case release, no finish."""

    SERVE_SPECS = [ServeSpec(process="poisson",
                             params=(("mean_interarrival_cycles", load),),
                             classes=(("rt", "mri-q", 8000, 1, 1.0),),
                             seed=0, horizon_cycles=6000)
                   for load in (2500.0, 1500.0)]

    def rerun(self, tmp_path, monkeypatch, make_runner, specs, simulator):
        """Sweep ``specs`` to done, then rerun them through a fresh runner
        and store connection with ``simulator`` replaced by :class:`_Bomb`;
        return both results after checking that the store did not change."""
        db_path, cache_dir = tmp_path / "exp.sqlite", tmp_path / "cache"
        first = make_runner(CaseCache(cache_dir), ExperimentDB(db_path))
        results = first.sweep(specs)
        experiment_id = first.experiment_log[0][0]
        before = ExperimentDB(db_path).experiment(experiment_id)
        assert before["status"] == "done"
        monkeypatch.setattr(simulator, _Bomb)
        db = ExperimentDB(db_path)
        rerun = make_runner(CaseCache(cache_dir), db)
        rerun_results = rerun.sweep(specs)
        assert db._conn.total_changes == 0
        assert db.experiment(experiment_id)["updated_at"] == before["updated_at"]
        assert rerun.experiment_log == first.experiment_log
        return results, rerun_results

    def test_case_runner(self, tmp_path, monkeypatch):
        results, rerun = self.rerun(
            tmp_path, monkeypatch,
            lambda cache, db: CaseRunner(FAST_GPU, CYCLES, cache=cache,
                                         expdb=db),
            SPECS, "repro.harness.runner.GPUSimulator")
        assert dump(rerun) == dump(results)

    def test_serve_runner(self, tmp_path, monkeypatch):
        results, rerun = self.rerun(
            tmp_path, monkeypatch,
            lambda cache, db: ServeRunner(FAST_GPU, cache=cache, expdb=db,
                                          workers=1),
            self.SERVE_SPECS, "repro.serve.runner.Dispatcher")
        assert ([outcome.to_value() for outcome in rerun]
                == [outcome.to_value() for outcome in results])

    def test_isolated_ipcs_come_from_the_store(self, tmp_path, monkeypatch):
        """With no case cache the co-run cases are recomputed, but the
        denominators the experiment stored are read, never re-simulated."""
        db_path = tmp_path / "exp.sqlite"
        first = CaseRunner(FAST_GPU, CYCLES, expdb=ExperimentDB(db_path))
        baseline = first.sweep(SPECS[:1])

        def explode(self, name):
            raise AssertionError(f"re-simulated the isolated run of {name}")

        monkeypatch.setattr(CaseRunner, "_simulate_isolated", explode)
        db = ExperimentDB(db_path)
        rerun = CaseRunner(FAST_GPU, CYCLES, expdb=db)
        assert dump(rerun.sweep(SPECS[:1])) == dump(baseline)
        for name in SPECS[0].names:
            assert rerun.isolated_ipc(name) == first.isolated_ipc(name)
        assert db._conn.total_changes == 0


class TestExpCli:
    @pytest.fixture
    def store_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path / "exp.sqlite"))
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        return tmp_path

    def interrupted_id(self, tmp_path):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        runner = CaseRunner(FAST_GPU, CYCLES,
                            cache=CaseCache(tmp_path / "cache"), expdb=db)
        runner.fault_after = 2
        with pytest.raises(SweepInterrupted):
            runner.sweep(SPECS)
        return runner.experiment_log[0][0]

    def test_list_show_resume(self, store_env, capsys):
        from repro.harness.expcli import main
        experiment_id = self.interrupted_id(store_env)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert experiment_id in out and "2/4" in out
        assert main(["show", experiment_id]) == 0
        out = capsys.readouterr().out
        assert "pending" in out and "current" in out
        assert main(["resume", experiment_id, "--workers", "1"]) == 0
        assert main(["show", experiment_id]) == 0
        assert "done      4" in capsys.readouterr().out

    def test_resume_refuses_stale_salt(self, store_env, capsys):
        from repro.harness.expcli import main
        db = ExperimentDB(store_env / "exp.sqlite")
        register_demo(db, "exp-stale", salt="not-the-current-salt")
        assert main(["resume", "exp-stale"]) == 2
        assert "refusing" in capsys.readouterr().err
        assert main(["gc"]) == 0
        assert "dropped 1" in capsys.readouterr().out
        assert db.experiment("exp-stale") is None

    def test_unknown_experiment(self, store_env, capsys):
        from repro.harness.expcli import main
        assert main(["show", "exp-missing"]) == 2
        assert main(["resume", "exp-missing"]) == 2

    def test_disabled_store_is_a_noop(self, monkeypatch, capsys):
        from repro.harness.expcli import main
        monkeypatch.setenv("REPRO_EXPDB", "0")
        assert main(["list"]) == 0
        assert "disabled" in capsys.readouterr().err

    def test_cli_dispatches_exp(self, store_env, capsys):
        from repro.cli import main
        self.interrupted_id(store_env)
        assert main(["exp", "list"]) == 0
        assert "exp-" in capsys.readouterr().out

    def test_diff_names_serving_specs(self, store_env, capsys):
        from repro.harness.expcli import main
        ids = []
        for loads in ((2500.0, 1500.0), (1500.0, 1000.0)):
            runner = ServeRunner(
                FAST_GPU, cache=CaseCache(store_env / "cache"),
                expdb=ExperimentDB(store_env / "exp.sqlite"), workers=1)
            runner.sweep([ServeSpec(
                process="poisson",
                params=(("mean_interarrival_cycles", load),),
                classes=(("rt", "mri-q", 8000, 1, 1.0),),
                seed=0, horizon_cycles=6000) for load in loads])
            ids.append(runner.experiment_log[0][0])
        assert main(["show", "--diff", *ids]) == 0
        out = capsys.readouterr().out
        assert "1 shared, 1 only in A, 1 only in B" in out
        assert ("only A:   poisson(mean_interarrival_cycles=2500) seed=0 "
                "horizon=6000 admission=always [smk]") in out
        assert ("only B:   poisson(mean_interarrival_cycles=1000) seed=0 "
                "horizon=6000 admission=always [smk]") in out


class TestExpDiff:
    @pytest.fixture
    def store_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path / "exp.sqlite"))
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        return tmp_path

    def sweep_id(self, tmp_path, specs, cycles, fault_after=None):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        runner = CaseRunner(FAST_GPU, cycles,
                            cache=CaseCache(tmp_path / "cache"), expdb=db)
        if fault_after is not None:
            runner.fault_after = fault_after
            with pytest.raises(SweepInterrupted):
                runner.sweep(specs)
        else:
            runner.sweep(specs)
        return runner.experiment_log[0][0]

    def test_diff_reports_grid_and_spec_deltas(self, store_env, capsys):
        from repro.harness.expcli import main
        id_a = self.sweep_id(store_env, SPECS[:3], CYCLES)
        id_b = self.sweep_id(store_env, SPECS[1:], CYCLES * 2)
        assert main(["show", "--diff", id_a, id_b]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and str(CYCLES) in out and str(CYCLES * 2) in out
        assert "2 shared, 1 only in A, 1 only in B" in out
        # The unshared specs are named, QoS kernels starred with their goal.
        assert "only A:   sgemm*0.5+lbm [rollover]" in out
        assert "only B:   sgemm*0.5+lbm+mri-q [rollover]" in out

    def test_diff_reports_status_drift_on_shared_specs(self, store_env,
                                                       capsys):
        from repro.harness.expcli import main
        id_a = self.sweep_id(store_env, SPECS, CYCLES)
        id_b = self.sweep_id(store_env, SPECS, CYCLES * 2, fault_after=2)
        assert id_a != id_b  # cycles are part of the grid identity
        assert main(["show", "--diff", id_a, id_b]) == 0
        out = capsys.readouterr().out
        assert "machine, cycles and telemetry identical" not in out
        assert "4 shared, 0 only in A, 0 only in B" in out
        assert "2 shared spec(s) differ" in out
        assert "A=done" in out and "B=pending" in out

    def test_diff_usage_errors(self, store_env, capsys):
        from repro.harness.expcli import main
        id_a = self.sweep_id(store_env, SPECS[:1], CYCLES)
        assert main(["show", "--diff", id_a]) == 2
        assert "two experiment ids" in capsys.readouterr().err
        assert main(["show", id_a, "exp-other"]) == 2
        assert "--diff" in capsys.readouterr().err
        assert main(["show", "--diff", id_a, "exp-missing"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
