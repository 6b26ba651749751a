"""The serving layer: arrivals, dispatch, metrics and the load-sweep harness.

Covers the subsystem's determinism contract end to end:

* arrival processes are deterministic per seed and emit ordered streams;
* the dispatcher launches FIFO within a class, honours admission policies,
  and accounts every rejection;
* the online demand predictor behind SLO-feasibility admission learns a
  per-class mean and deviation;
* request records round-trip strictly through the JSONL schema;
* the serving runner's sweeps are byte-identical across serial and
  parallel execution and across an interrupted-then-resumed experiment;
* the ``serve`` cache kind sits inside the code salt (SALT001 regression).
"""

import io
import json

import pytest

from repro.config import GPUConfig, SMConfig
from repro.harness.cache import CaseCache
from repro.harness.expdb import ExperimentDB
from repro.harness.runner import SweepInterrupted
from repro.serve import (Dispatcher, PeriodicArrivals, PoissonArrivals,
                         QueueCap, RequestClass, read_request_trace,
                         request_record_to_dict, trace_arrivals,
                         validate_request_dict, write_request_trace)
from repro.serve.predictor import OnlineDemandPredictor
from repro.serve.runner import ServeRunner, ServeSpec

GPU = GPUConfig(num_sms=2, num_mcs=1, epoch_length=600, idle_warp_samples=6,
                sm=SMConfig(warp_schedulers=2))

#: Fast registry kernels (one TB drains in a few thousand cycles on the
#: 2-SM test machine), so served cases finish within short horizons.
CLASSES = (("rt", "mri-q", 8000, 1, 1.0), ("bg", "sad", 16000, 1, 1.0))

HORIZON = 10000


def serve_spec(load, seed=0, **kwargs):
    return ServeSpec(process="poisson",
                     params=(("mean_interarrival_cycles", float(load)),),
                     classes=CLASSES, seed=seed, horizon_cycles=HORIZON,
                     **kwargs)


SPECS = [serve_spec(load) for load in (2500, 1500, 1000)]


def request_classes():
    return tuple(RequestClass(name, kernel, slo, grid, weight)
                 for name, kernel, slo, grid, weight in CLASSES)


def dump(outcomes):
    """Byte-level form of a sweep result (the differential currency)."""
    return json.dumps([outcome.to_value() for outcome in outcomes],
                      sort_keys=True)


# ------------------------------------------------------------------ arrivals


class TestArrivals:
    def test_same_seed_same_stream(self):
        process = PoissonArrivals(request_classes(), 1000.0, seed=9)
        first = process.generate(50000)
        second = PoissonArrivals(request_classes(), 1000.0,
                                 seed=9).generate(50000)
        assert first == second
        assert len(first) > 10

    def test_seed_changes_stream(self):
        base = PoissonArrivals(request_classes(), 1000.0, seed=0)
        other = PoissonArrivals(request_classes(), 1000.0, seed=1)
        assert base.generate(50000) != other.generate(50000)

    def test_streams_are_ordered_with_sequential_ids(self):
        requests = PoissonArrivals(request_classes(), 500.0,
                                   seed=3).generate(50000)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        for earlier, later in zip(requests, requests[1:]):
            assert earlier.arrival_cycle <= later.arrival_cycle
        assert all(r.arrival_cycle < 50000 for r in requests)

    def test_generate_is_repeatable_on_one_instance(self):
        # generate() reseeds internally: calling it twice must not chain
        # the RNG state from the first call into the second.
        process = PoissonArrivals(request_classes(), 800.0, seed=4)
        assert process.generate(20000) == process.generate(20000)

    def test_periodic_is_deterministic_and_staggered(self):
        process = PeriodicArrivals(request_classes(), 4000)
        requests = process.generate(12000)
        by_class = {}
        for request in requests:
            by_class.setdefault(request.request_class, []).append(
                request.arrival_cycle)
        # Class 0 at phase 0, class 1 staggered half a period in.
        assert by_class["rt"] == [0, 4000, 8000]
        assert by_class["bg"] == [2000, 6000, 10000]

    def test_trace_round_trip_and_order_validation(self):
        requests = PoissonArrivals(request_classes(), 1000.0,
                                   seed=2).generate(20000)
        payloads = [request.to_dict() for request in requests]
        assert trace_arrivals(payloads) == requests
        if len(payloads) >= 2:
            reordered = [payloads[-1]] + payloads[:-1]
            with pytest.raises(ValueError, match="arrival order"):
                trace_arrivals(reordered)

    def test_class_validation(self):
        with pytest.raises(ValueError, match="slo_cycles"):
            RequestClass("x", "mri-q", 0)
        with pytest.raises(ValueError, match="unique"):
            PoissonArrivals((RequestClass("a", "mri-q", 10),
                             RequestClass("a", "sad", 10)), 100.0)
        with pytest.raises(ValueError, match="at least one class"):
            PoissonArrivals((), 100.0)


# ---------------------------------------------------------------- dispatcher


class TestDispatcher:
    def _serve(self, admission=None, max_concurrent=1, load=1500.0, seed=5):
        requests = PoissonArrivals(request_classes(), load,
                                   seed=seed).generate(HORIZON)
        dispatcher = Dispatcher(GPU, admission=admission,
                                max_concurrent=max_concurrent)
        return dispatcher.serve(requests, HORIZON)

    def test_fifo_ordering_single_slot(self):
        """With one concurrency slot and flat priorities, requests start
        (and finish) in arrival order."""
        result = self._serve(max_concurrent=1)
        started = [r for r in result.records if r.start_cycle is not None]
        assert len(started) >= 3
        for earlier, later in zip(started, started[1:]):
            assert earlier.arrival_cycle <= later.arrival_cycle
            assert earlier.start_cycle <= later.start_cycle
        finished = [r.finish_cycle for r in result.records
                    if r.finish_cycle is not None]
        assert finished == sorted(finished)

    def test_queue_cap_rejections_are_accounted(self):
        capped = self._serve(admission=QueueCap(1), load=600.0, seed=1)
        assert capped.rejected > 0
        rejected = [r for r in capped.records if not r.admitted]
        assert len(rejected) == capped.rejected
        for record in rejected:
            assert record.reject_reason == "queue-cap"
            assert record.start_cycle is None
            assert record.finish_cycle is None
            assert not record.slo_met
        assert capped.generated == capped.admitted + capped.rejected
        assert capped.admitted == capped.completed + capped.unfinished

    def test_counters_match_records(self):
        result = self._serve(max_concurrent=2)
        assert result.generated == len(result.records)
        assert result.admitted == sum(1 for r in result.records if r.admitted)
        assert result.completed == sum(1 for r in result.records
                                       if r.completed)
        assert result.completed >= 1

    def test_latency_decomposition(self):
        """queue wait + service = end-to-end latency for every completed
        request, and slo_met is exactly the latency-vs-SLO comparison."""
        result = self._serve(max_concurrent=2)
        for record in result.records:
            if record.completed:
                assert (record.queue_wait_cycles + record.service_cycles
                        == record.latency_cycles)
                assert record.slo_met == (record.latency_cycles
                                          <= record.slo_cycles)

    def test_class_priority_preempts_fifo(self):
        """A strictly prioritised class is always drawn from the queues
        first, even when the other class arrived earlier."""
        classes = request_classes()
        requests = PeriodicArrivals(classes, 1000,
                                    phase_cycles=(0, 0)).generate(4000)
        dispatcher = Dispatcher(GPU, max_concurrent=1,
                                class_priority={"bg": 0, "rt": 1})
        result = dispatcher.serve(requests, 12000)
        starts = {r.request_class: r.start_cycle for r in result.records
                  if r.arrival_cycle == 0 and r.start_cycle is not None}
        assert set(starts) == {"rt", "bg"}
        assert starts["bg"] < starts["rt"]


# ----------------------------------------------------------------- predictor


class TestOnlineDemandPredictor:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OnlineDemandPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            OnlineDemandPredictor(warmup_samples=0)

    def test_observe_and_estimate(self):
        predictor = OnlineDemandPredictor(alpha=0.5)
        for value in (100, 110, 90, 105):
            predictor.observe("app", value)
        estimate = predictor.estimate("app")
        assert 90 <= estimate.mean <= 110
        assert estimate.samples == 4

    def test_margin_covers_variance(self):
        predictor = OnlineDemandPredictor(alpha=0.5)
        for value in (100, 200, 100, 200, 100, 200):
            predictor.observe("noisy", value)
        estimate = predictor.estimate("noisy")
        assert estimate.with_margin(2.0) > estimate.mean
        assert estimate.with_margin(2.0) >= 180  # covers the high tail

    def test_stable_workload_predicts_tightly(self):
        predictor = OnlineDemandPredictor()
        for _ in range(10):
            predictor.observe("stable", 1000.0)
        estimate = predictor.estimate("stable")
        assert estimate.mean == pytest.approx(1000.0)
        assert estimate.deviation == pytest.approx(0.0)

    def test_readiness_after_warmup(self):
        predictor = OnlineDemandPredictor(warmup_samples=3)
        predictor.observe("app", 10)
        assert not predictor.ready("app")
        predictor.observe("app", 10)
        predictor.observe("app", 10)
        assert predictor.ready("app")

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            OnlineDemandPredictor().estimate("ghost")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OnlineDemandPredictor().observe("app", -1)


# ------------------------------------------------------------------- metrics


class TestRequestSchema:
    def _valid(self):
        result = Dispatcher(GPU, max_concurrent=1).serve(
            PoissonArrivals(request_classes(), 2000.0,
                            seed=7).generate(6000), 6000)
        return [request_record_to_dict(r) for r in result.records]

    def test_round_trip(self):
        result = Dispatcher(GPU, max_concurrent=1).serve(
            PoissonArrivals(request_classes(), 2000.0,
                            seed=7).generate(6000), 6000)
        stream = io.StringIO()
        count = write_request_trace(stream, result.records,
                                    meta={"case": "unit"})
        assert count == len(result.records) > 0
        stream.seek(0)
        meta, records = read_request_trace(stream)
        assert meta["case"] == "unit"
        assert tuple(records) == result.records

    def test_missing_and_extra_fields_rejected(self):
        payload = self._valid()[0]
        missing = dict(payload)
        del missing["slo_met"]
        with pytest.raises(ValueError, match="missing=\\['slo_met'\\]"):
            validate_request_dict(missing)
        extra = dict(payload)
        extra["surprise"] = 1
        with pytest.raises(ValueError, match="extra=\\['surprise'\\]"):
            validate_request_dict(extra)

    def test_type_errors_rejected(self):
        payload = self._valid()[0]
        for field, bad in (("request_id", "zero"), ("request_id", True),
                           ("kernel", 3), ("admitted", 1),
                           ("latency_cycles", 1.5), ("reject_reason", 2)):
            broken = dict(payload)
            broken[field] = bad
            with pytest.raises(ValueError, match=field):
                validate_request_dict(broken)

    def test_reader_rejects_bad_traces(self):
        with pytest.raises(ValueError, match="empty"):
            read_request_trace(io.StringIO(""))
        with pytest.raises(ValueError, match="meta header"):
            read_request_trace(io.StringIO('{"kind": "request"}\n'))
        with pytest.raises(ValueError, match="schema version"):
            read_request_trace(io.StringIO(
                '{"kind": "meta", "request_schema_version": 99}\n'))
        with pytest.raises(ValueError, match="unknown kind"):
            read_request_trace(io.StringIO(
                '{"kind": "meta", "request_schema_version": 1}\n'
                '{"kind": "epoch"}\n'))


# ------------------------------------------------------------------- runner


class TestServeRunner:
    @pytest.fixture(scope="class")
    def clean_outcomes(self):
        return ServeRunner(GPU, workers=1).sweep(SPECS)

    def test_spec_payload_round_trip(self):
        for spec in SPECS + [serve_spec(800, seed=3, admission="cap:2",
                                        max_concurrent=2, policy="rollover")]:
            clone = ServeSpec.from_payload(
                json.loads(json.dumps(spec.payload())))
            assert clone == spec

    def test_run_spec_is_memoised(self):
        runner = ServeRunner(GPU, workers=1)
        first = runner.run_spec(SPECS[0])
        assert runner.run_spec(SPECS[0]) is first
        assert runner.cached_cases == 1

    def test_persistent_cache_round_trip(self, tmp_path, monkeypatch,
                                         clean_outcomes):
        cache_dir = tmp_path / "cache"
        warm = ServeRunner(GPU, cache=CaseCache(cache_dir), workers=1)
        baseline = warm.sweep(SPECS)
        assert dump(baseline) == dump(clean_outcomes)

        class _Bomb:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a cached serving case re-simulated")

        monkeypatch.setattr("repro.serve.runner.Dispatcher", _Bomb)
        cold = ServeRunner(GPU, cache=CaseCache(cache_dir), workers=1)
        assert dump(cold.sweep(SPECS)) == dump(baseline)

    def test_parallel_matches_serial(self, clean_outcomes):
        parallel = ServeRunner(GPU, workers=2).sweep(SPECS)
        assert dump(parallel) == dump(clean_outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path, workers,
                                                     clean_outcomes):
        db_path = tmp_path / "exp.sqlite"
        cache_dir = tmp_path / "cache"
        interrupted = ServeRunner(GPU, cache=CaseCache(cache_dir),
                                  expdb=ExperimentDB(db_path),
                                  workers=workers)
        interrupted.fault_after = 1
        with pytest.raises(SweepInterrupted):
            interrupted.sweep(SPECS)
        db = ExperimentDB(db_path)
        counts = db.case_counts(interrupted.experiment_log[0][0])
        assert counts.get("done", 0) < len(SPECS)  # genuinely mid-flight
        resumed = ServeRunner(GPU, cache=CaseCache(cache_dir), expdb=db,
                              workers=workers)
        outcomes = resumed.sweep(SPECS)
        assert db.experiment(resumed.experiment_log[0][0])["status"] == "done"
        assert dump(outcomes) == dump(clean_outcomes)

    def test_parallel_sweep_falls_back_to_serial(self, tmp_path,
                                                 unusable_pool,
                                                 clean_outcomes):
        db = ExperimentDB(tmp_path / "exp.sqlite")
        runner = ServeRunner(GPU, expdb=db, workers=2)
        outcomes = runner.sweep(SPECS)
        assert unusable_pool  # a pool was really attempted
        assert dump(outcomes) == dump(clean_outcomes)
        assert db.experiment(runner.experiment_log[0][0])["status"] == "done"

    def test_exp_resume_and_show_on_a_serving_grid(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   clean_outcomes):
        from repro.harness.expcli import main

        db_path, cache_dir = tmp_path / "exp.sqlite", tmp_path / "cache"
        monkeypatch.setenv("REPRO_EXPDB", str(db_path))
        monkeypatch.setenv("REPRO_CACHE", str(cache_dir))
        interrupted = ServeRunner(GPU, cache=CaseCache(cache_dir),
                                  expdb=ExperimentDB(db_path), workers=1)
        interrupted.fault_after = 1
        with pytest.raises(SweepInterrupted):
            interrupted.sweep(SPECS)
        experiment_id = interrupted.experiment_log[0][0]
        assert main(["resume", experiment_id]) == 0
        db = ExperimentDB(db_path)
        assert db.experiment(experiment_id)["status"] == "done"
        assert main(["show", experiment_id]) == 0
        out = capsys.readouterr().out
        assert f"horizon:    {HORIZON} cycles, {len(SPECS)} serving" in out
        assert "done      3" in out

        # The resume cached every outcome: a rerun serves nothing anew.
        class _Bomb:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a resumed serving case re-simulated")

        monkeypatch.setattr("repro.serve.runner.Dispatcher", _Bomb)
        rerun = ServeRunner(GPU, cache=CaseCache(cache_dir), expdb=db,
                            workers=1)
        assert dump(rerun.sweep(SPECS)) == dump(clean_outcomes)

    def test_unknown_process_and_admission_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ServeSpec(process="lognormal", params=(), classes=CLASSES,
                      seed=0, horizon_cycles=HORIZON)
        with pytest.raises(ValueError, match="unknown admission"):
            serve_spec(1000, admission="sometimes").build_admission()


class TestServePolicies:
    """Only policies that tolerate kernels launched mid-run may serve; the
    rest are refused before anything is simulated or cached."""

    def test_other_policies_refused_before_simulating(self, tmp_path,
                                                      monkeypatch):
        from repro.harness.runner import POLICY_NAMES

        class _Bomb:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a refused policy started serving")

        monkeypatch.setattr("repro.serve.runner.Dispatcher", _Bomb)
        cache = CaseCache(tmp_path)
        runner = ServeRunner(GPU, cache=cache, workers=1)
        refused = [policy for policy in POLICY_NAMES if policy != "smk"]
        assert len(refused) == len(POLICY_NAMES) - 1
        for policy in refused:
            with pytest.raises(ValueError, match=f"'{policy}'"):
                runner.run_spec(serve_spec(2500, policy=policy))
        assert len(cache) == 0

    def test_smk_serves(self):
        outcome = ServeRunner(GPU, workers=1).run_spec(serve_spec(2500))
        assert outcome.completed > 0

    def test_cli_offers_only_serving_policies(self):
        from repro.serve.cli import build_serve_parser

        parser = build_serve_parser()
        assert parser.parse_args(["--policy", "smk"]).policy == "smk"
        with pytest.raises(SystemExit):
            parser.parse_args(["--policy", "rollover"])


# ----------------------------------------------------------- salt regression


class TestServeSalt:
    def test_serve_and_its_predictor_are_salted(self):
        """SALT001 regression: serving results are cached (kind ``serve``),
        so the serving layer, the demand predictor it admits with included,
        must sit inside the code salt — editing any of it has to invalidate
        cached serving outcomes."""
        from repro.harness.cache import _SALTED, salted_paths

        assert "serve" in _SALTED
        paths = salted_paths()
        for module in ("serve/arrivals.py", "serve/dispatcher.py",
                       "serve/metrics.py", "serve/predictor.py",
                       "serve/runner.py"):
            assert module in paths

    def test_serve_runner_is_a_salt_closure_root(self):
        from repro.analysis.rules.saltcov import CLOSURE_ROOTS

        assert "repro.serve.runner" in CLOSURE_ROOTS

    def test_serve_key_tracks_spec_content(self):
        from repro.harness.cache import serve_key

        base = serve_key(GPU, SPECS[0].payload())
        assert serve_key(GPU, SPECS[0].payload()) == base
        assert serve_key(GPU, SPECS[1].payload()) != base
