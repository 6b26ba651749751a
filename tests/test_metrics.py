"""Tests for QoSreach, throughput averages, the miss histogram and the
controller scores."""

import pytest

from repro.config import FAST_GPU
from repro.harness.metrics import (
    MISS_BUCKETS,
    average_normalized_turnaround,
    fairness_index,
    improvement,
    mean_instructions_per_watt,
    mean_nonqos_throughput,
    mean_qos_overshoot,
    miss_histogram,
    qos_reach,
    score_case,
    settling_epochs,
    system_throughput,
)
from repro.harness.runner import CaseRecord, CaseRunner, KernelOutcome


def outcome(name="k", is_qos=False, ipc=50.0, iso=100.0, goal=None):
    return KernelOutcome(name=name, is_qos=is_qos,
                         goal_fraction=(goal / iso if goal else None),
                         ipc=ipc, isolated_ipc=iso, ipc_goal=goal,
                         intensity="C")


def case(qos_ipc, goal, nonqos_ipc=40.0, policy="rollover", ipw=1.0):
    kernels = (
        outcome("q", is_qos=True, ipc=qos_ipc, goal=goal),
        outcome("n", ipc=nonqos_ipc),
    )
    return CaseRecord(kernels=kernels, policy=policy, cycles=1000,
                      evictions=0, eviction_stall_cycles=0, power_w=10.0,
                      instructions_per_watt=ipw)


class TestQoSReach:
    def test_empty(self):
        assert qos_reach([]) == 0.0

    def test_counts_met_cases(self):
        cases = [case(100, 80), case(50, 80), case(81, 80), case(10, 80)]
        assert qos_reach(cases) == 0.5

    def test_tolerance_at_goal(self):
        assert qos_reach([case(80.0, 80.0)]) == 1.0


class TestThroughputMeans:
    def test_met_only_filter(self):
        met = case(100, 80, nonqos_ipc=40)     # non-QoS tput 0.4
        unmet = case(50, 80, nonqos_ipc=90)
        assert mean_nonqos_throughput([met, unmet]) == pytest.approx(0.4)
        assert mean_nonqos_throughput([met, unmet], met_only=False) == \
            pytest.approx((0.4 + 0.9) / 2)

    def test_none_when_nothing_met(self):
        assert mean_nonqos_throughput([case(10, 80)]) is None

    def test_overshoot(self):
        cases = [case(88, 80), case(96, 80)]
        assert mean_qos_overshoot(cases) == pytest.approx((1.1 + 1.2) / 2)

    def test_overshoot_none_when_unmet(self):
        assert mean_qos_overshoot([case(10, 80)]) is None


class TestMissHistogram:
    def test_buckets(self):
        cases = [
            case(79.5, 80),    # 0.6% below -> 0-1%
            case(77, 80),      # 3.75% -> 1-5%
            case(74, 80),      # 7.5% -> 5-10%
            case(66, 80),      # 17.5% -> 10-20%
            case(40, 80),      # 50% -> 20+%
            case(100, 80),     # met: not counted
        ]
        histogram = miss_histogram(cases)
        assert histogram == {"0-1%": 1, "1-5%": 1, "5-10%": 1,
                             "10-20%": 1, "20+%": 1}

    def test_bucket_order_matches_paper(self):
        assert MISS_BUCKETS == ("0-1%", "1-5%", "5-10%", "10-20%", "20+%")


class TestHelpers:
    def test_mean_ipw(self):
        cases = [case(100, 80, ipw=2.0), case(100, 80, ipw=4.0)]
        assert mean_instructions_per_watt(cases) == 3.0
        assert mean_instructions_per_watt([]) is None

    def test_improvement(self):
        assert improvement(1.2, 1.0) == pytest.approx(0.2)
        assert improvement(None, 1.0) is None
        assert improvement(1.0, None) is None
        assert improvement(1.0, 0.0) is None


class TestMultiprogrammingMetrics:
    def test_system_throughput_sums_normalised(self):
        record = case(50, 80, nonqos_ipc=40)  # q: 50/100, n: 40/100
        assert system_throughput(record) == pytest.approx(0.9)

    def test_antt_is_mean_slowdown(self):
        record = case(50, 80, nonqos_ipc=25)  # slowdowns 2.0 and 4.0
        assert average_normalized_turnaround(record) == pytest.approx(3.0)

    def test_antt_infinite_when_starved(self):
        record = case(50, 80, nonqos_ipc=0.0)
        assert average_normalized_turnaround(record) == float("inf")

    def test_fairness_index_bounds(self):
        equal = case(40, 80, nonqos_ipc=40)
        skewed = case(90, 80, nonqos_ipc=10)
        assert fairness_index(equal) == pytest.approx(1.0)
        assert fairness_index(skewed) < 0.2

    def test_fairness_of_dead_machine(self):
        record = case(0.0, 80, nonqos_ipc=0.0)
        assert fairness_index(record) == 1.0


# ------------------------------------------------------- controller scores

@pytest.fixture(scope="module")
def pid_record():
    runner = CaseRunner(FAST_GPU, 6000, telemetry=True)
    return runner.run_pair("sgemm", "lbm", 0.5, "pid")


class TestScoring:
    def test_settling_epochs(self):
        goal = 10.0
        trajectory = [(2.0, goal), (8.0, goal), (9.6, goal), (9.8, goal)]
        assert settling_epochs(trajectory) == 2.0
        assert settling_epochs([(9.9, goal)] * 3) == 0.0
        assert settling_epochs([(1.0, goal)] * 3) == 3.0

    def test_score_case_requires_telemetry(self):
        record = CaseRunner(FAST_GPU, 6000).run_pair("sgemm", "lbm", 0.5,
                                                     "pid")
        with pytest.raises(ValueError, match="telemetry"):
            score_case(record, "sgemm+lbm")

    def test_score_case_metrics_are_bounded(self, pid_record):
        score = score_case(pid_record, "sgemm+lbm")
        assert 0.0 <= score.qos_attainment <= 1.0
        assert score.overshoot >= 0.0
        assert 0.0 <= score.settling_epochs <= score.epochs
        assert score.nonqos_stp > 0.0
        assert score.policy == "pid"
