"""Tests for the case runner and its memoisation."""

import pytest

from repro.config import FAST_GPU
from repro.harness.runner import CaseRunner, make_policy, POLICY_NAMES
from repro.baselines import SpartPolicy
from repro.qos import QoSPolicy
from repro.sharing import FairSMKPolicy, SerialPolicy
from repro.sim import SharingPolicy

CYCLES = 6000


@pytest.fixture(scope="module")
def runner():
    return CaseRunner(FAST_GPU, CYCLES)


class TestMakePolicy:
    def test_spart(self):
        assert isinstance(make_policy("spart"), SpartPolicy)

    def test_smk_base(self):
        policy = make_policy("smk")
        assert type(policy) is SharingPolicy

    def test_quota_schemes(self):
        for name in ("naive", "history", "elastic", "rollover",
                     "rollover-time"):
            policy = make_policy(name)
            assert isinstance(policy, QoSPolicy)
            assert policy.scheme.name == name

    def test_nostatic_variant(self):
        policy = make_policy("rollover-nostatic")
        assert isinstance(policy, QoSPolicy)
        assert policy.static_adjustment is False

    def test_sharing_regimes(self):
        serial = make_policy("serial")
        assert isinstance(serial, SerialPolicy)
        assert serial.slice_epochs == 2
        fair = make_policy("fair-smk", {"sgemm": 40.0, "lbm": 20.0})
        assert isinstance(fair, FairSMKPolicy)
        assert fair.isolated_ipc == {"sgemm": 40.0, "lbm": 20.0}

    def test_fair_smk_needs_isolated_ipcs(self):
        with pytest.raises(ValueError, match="isolated IPCs"):
            make_policy("fair-smk")

    def test_every_listed_name_constructs(self):
        for name in POLICY_NAMES:
            make_policy(name, {"sgemm": 40.0, "lbm": 20.0})


class TestIsolated:
    def test_memoised(self, runner):
        first = runner.isolated_ipc("sgemm")
        second = runner.isolated_ipc("sgemm")
        assert first == second
        assert first > 0

    def test_compute_faster_than_memory(self, runner):
        assert runner.isolated_ipc("mri-q") > runner.isolated_ipc("spmv")


class TestRunPair:
    def test_outcome_structure(self, runner):
        record = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        assert record.policy == "rollover"
        qos, nonqos = record.kernels
        assert qos.is_qos and not nonqos.is_qos
        assert qos.goal_fraction == 0.5
        assert qos.ipc_goal == pytest.approx(
            0.5 * runner.isolated_ipc("sgemm"))
        assert nonqos.ipc_goal is None
        assert nonqos.reached is None
        assert 0 <= nonqos.normalized_throughput <= 1.5

    def test_memoisation_returns_same_object(self, runner):
        first = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        second = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        assert first is second
        assert runner.cached_cases >= 1

    def test_easy_goal_met(self, runner):
        record = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        assert record.qos_met

    def test_goal_ratio_and_miss_percent(self, runner):
        record = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        qos = record.qos_kernels[0]
        assert qos.goal_ratio == pytest.approx(qos.ipc / qos.ipc_goal)
        if qos.reached:
            assert qos.miss_percent == 0.0

    def test_power_metrics_present(self, runner):
        record = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        assert record.power_w > 0
        assert record.instructions_per_watt > 0


class TestRunTrio:
    def test_one_qos(self, runner):
        record = runner.run_trio(("sgemm", "lbm", "mri-q"), 1, 0.5,
                                 "rollover")
        assert len(record.qos_kernels) == 1
        assert len(record.nonqos_kernels) == 2

    def test_two_qos(self, runner):
        record = runner.run_trio(("sgemm", "lbm", "mri-q"), 2, 0.25,
                                 "rollover")
        assert len(record.qos_kernels) == 2
        assert all(k.goal_fraction == 0.25 for k in record.qos_kernels)

    def test_qos_met_requires_all(self, runner):
        record = runner.run_trio(("sgemm", "lbm", "mri-q"), 2, 0.25,
                                 "rollover")
        expected = all(k.reached for k in record.qos_kernels)
        assert record.qos_met == expected

    def test_invalid_qos_count(self, runner):
        with pytest.raises(ValueError):
            runner.run_trio(("sgemm", "lbm", "mri-q"), 3, 0.5, "rollover")
        with pytest.raises(ValueError):
            runner.run_trio(("sgemm", "lbm", "mri-q"), 0, 0.5, "rollover")


class TestIntensityTagging:
    def test_outcomes_carry_class(self, runner):
        record = runner.run_pair("sgemm", "lbm", 0.5, "rollover")
        assert record.kernels[0].intensity == "C"
        assert record.kernels[1].intensity == "M"
