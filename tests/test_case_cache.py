"""Tests for the persistent case cache (repro.harness.cache)."""

from dataclasses import replace

import pytest

from repro.config import FAST_GPU
from repro.harness.cache import (CaseCache, case_key, code_salt, isolated_key,
                                 record_to_dict, serve_key)
from repro.harness.runner import CaseRunner, record_from_dict

CYCLES = 4000
NAMES = ("sgemm", "lbm")
FLAGS = (True, False)
GOALS = (0.5, None)


def make_record():
    return CaseRunner(FAST_GPU, CYCLES).run_pair("sgemm", "lbm", 0.5,
                                                 "rollover")


class TestKeying:
    def test_stable(self):
        first = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover", CYCLES, 100)
        second = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover", CYCLES, 100)
        assert first == second

    @pytest.mark.parametrize("override", [
        dict(gpu=FAST_GPU.scaled(num_sms=8)),
        dict(names=("sgemm", "spmv")),
        dict(flags=(True, True)),
        dict(goals=(0.65, None)),
        dict(policy="spart"),
        dict(cycles=CYCLES + 1),
        dict(warmup=101),
        dict(gpu=FAST_GPU.scaled(memory=replace(
            FAST_GPU.memory, latency=replace(FAST_GPU.memory.latency,
                                             dram=341)))),
        dict(gpu=FAST_GPU.scaled(preemption=replace(FAST_GPU.preemption,
                                                    mode="reset"))),
        # Equal to FAST_GPU (which keeps the default 1216.0 MHz) but
        # serialised as 1216, as GPUConfig(core_freq_mhz=1216) is against
        # GPUConfig(): the machine digest is memoised by identity, never by
        # equality, so the two keep the distinct keys their dicts give.
        dict(gpu=FAST_GPU.scaled(core_freq_mhz=1216)),
    ])
    def test_any_component_changes_key(self, override):
        base = dict(gpu=FAST_GPU, names=NAMES, flags=FLAGS, goals=GOALS,
                    policy="rollover", cycles=CYCLES, warmup=100)
        varied = dict(base, **override)
        assert (case_key(base["gpu"], base["names"], base["flags"],
                         base["goals"], base["policy"], base["cycles"],
                         base["warmup"])
                != case_key(varied["gpu"], varied["names"], varied["flags"],
                            varied["goals"], varied["policy"], varied["cycles"],
                            varied["warmup"]))
        if varied["gpu"] is not base["gpu"]:
            # Isolated and serving keys follow the machine too, and calls
            # alternating between the two configs never get the other's key.
            gpus = (base["gpu"], varied["gpu"]) * 2
            for key in (lambda gpu: case_key(gpu, NAMES, FLAGS, GOALS,
                                             "rollover", CYCLES, 100),
                        lambda gpu: isolated_key(gpu, "sgemm", CYCLES, 100),
                        lambda gpu: serve_key(gpu, {"seed": 0})):
                first, second, first_again, second_again = map(key, gpus)
                assert first != second
                assert (first_again, second_again) == (first, second)

    def test_isolated_key_distinct_from_case_key(self):
        assert (isolated_key(FAST_GPU, "sgemm", CYCLES, 100)
                != case_key(FAST_GPU, ("sgemm",), (False,), (None,), "smk",
                            CYCLES, 100))

    def test_code_salt_is_stable_hex(self):
        assert code_salt() == code_salt()
        int(code_salt(), 16)


class TestSerialisation:
    def test_record_round_trips(self):
        record = make_record()
        assert record_from_dict(record_to_dict(record)) == record

    def test_round_trip_through_json(self):
        import json
        record = make_record()
        rebuilt = record_from_dict(json.loads(json.dumps(
            record_to_dict(record))))
        assert rebuilt == record
        assert rebuilt.kernels[0].ipc == record.kernels[0].ipc


class TestStore:
    def test_put_get_survives_reopen(self, tmp_path):
        record = make_record()
        key = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover", CYCLES, 100)
        CaseCache(tmp_path).put_case(key, record_to_dict(record))
        assert record_from_dict(CaseCache(tmp_path).get_case(key)) == record

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = CaseCache(tmp_path)
        assert cache.get_case("no-such-key") is None
        assert cache.misses == 1

    def test_isolated_round_trip(self, tmp_path):
        key = isolated_key(FAST_GPU, "sgemm", CYCLES, 100)
        CaseCache(tmp_path).put_isolated(key, 123.5)
        assert CaseCache(tmp_path).get_isolated(key) == 123.5

    def test_clear(self, tmp_path):
        cache = CaseCache(tmp_path)
        cache.put_isolated("k", 1.0)
        assert cache.clear() == 1
        assert len(CaseCache(tmp_path)) == 0

    def test_stats_shape(self, tmp_path):
        cache = CaseCache(tmp_path)
        cache.put_isolated("k", 1.0)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["isolated"] == 1
        assert stats["cases"] == 0

    def test_torn_write_tolerated(self, tmp_path):
        cache = CaseCache(tmp_path)
        cache.put_isolated("k", 1.0)
        with cache.path.open("a") as stream:
            stream.write('{"key": "torn", "kind')
        reopened = CaseCache(tmp_path)
        assert reopened.get_isolated("k") == 1.0
        assert len(reopened) == 1
        # The next run's first store starts a new line instead of landing
        # on the torn one, so it survives another reopen.
        reopened.put_isolated("k2", 2.0)
        again = CaseCache(tmp_path)
        assert again.get_isolated("k2") == 2.0
        assert again.get_isolated("k") == 1.0
        assert len(again) == 2


class TestRunnerIntegration:
    def test_warm_runner_never_simulates(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner_module

        warm_cache = CaseCache(tmp_path)
        cold = CaseRunner(FAST_GPU, CYCLES, cache=warm_cache)
        record = cold.run_pair("sgemm", "lbm", 0.5, "rollover")

        class Explodes:
            def __init__(self, *args, **kwargs):
                raise AssertionError("cache miss caused a simulation")

        monkeypatch.setattr(runner_module, "GPUSimulator", Explodes)
        warm = CaseRunner(FAST_GPU, CYCLES, cache=CaseCache(tmp_path))
        assert warm.run_pair("sgemm", "lbm", 0.5, "rollover") == record
        assert warm.isolated_ipc("sgemm") == cold.isolated_ipc("sgemm")

    def test_different_case_still_misses(self, tmp_path):
        cache = CaseCache(tmp_path)
        runner = CaseRunner(FAST_GPU, CYCLES, cache=cache)
        runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        hits_before = cache.hits
        runner.run_pair("sgemm", "lbm", 0.65, "rollover")
        assert cache.hits == hits_before  # new goal: no false hit


class TestTelemetryKeying:
    def test_telemetry_flag_changes_key(self):
        lean = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover", CYCLES,
                        100, telemetry=False)
        full = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover", CYCLES,
                        100, telemetry=True)
        assert lean != full

    def test_default_is_lean(self):
        implicit = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover",
                            CYCLES, 100)
        explicit = case_key(FAST_GPU, NAMES, FLAGS, GOALS, "rollover",
                            CYCLES, 100, telemetry=False)
        assert implicit == explicit

    def test_salt_covers_policy_and_telemetry_modules(self):
        # The contract and the recorder both shape cached records; editing
        # either must invalidate the store.
        from repro.harness.cache import salted_paths
        paths = salted_paths()
        assert "sim/policy.py" in paths
        assert "sim/telemetry.py" in paths
        assert "harness/runner.py" in paths

    def test_salt_covers_the_cache_module_itself(self):
        # Keying and record (de)serialisation live in harness/cache.py;
        # editing them redefines what a stored entry means, so the salt
        # must cover the module (surfaced by `repro lint` rule SALT001).
        from repro.harness.cache import salted_paths
        assert "harness/cache.py" in salted_paths()

    def test_telemetry_record_round_trips(self):
        record = CaseRunner(FAST_GPU, CYCLES, telemetry=True).run_pair(
            "sgemm", "lbm", 0.5, "rollover")
        assert record.telemetry
        assert record_from_dict(record_to_dict(record)) == record

    def test_telemetry_record_round_trips_through_json(self):
        import json
        record = CaseRunner(FAST_GPU, CYCLES, telemetry=True).run_pair(
            "sgemm", "lbm", 0.5, "rollover")
        rehydrated = record_from_dict(
            json.loads(json.dumps(record_to_dict(record))))
        assert rehydrated == record
