"""Tests for the paper-reference shape checks and EXPERIMENTS.md renderer."""

import pytest

from repro.harness.experiments import ExperimentResult, ExperimentSuite
from repro.harness.paper import (
    PAPER_REPORTED,
    ShapeCheck,
    evaluate_experiment,
    render_comparison,
)


def result_with(experiment_id, data):
    return ExperimentResult(experiment_id, f"title-{experiment_id}",
                            f"table-{experiment_id}", data)


class TestCoverage:
    def test_every_paper_artifact_has_reference_text(self):
        for artifact in ("fig05", "fig06a", "fig06b", "fig06c", "fig07",
                         "fig08a", "fig08b", "fig08c", "fig09", "fig10",
                         "fig11", "fig12", "fig13", "fig14", "sec48a",
                         "sec48b", "sec48c", "table1", "table2"):
            assert artifact in PAPER_REPORTED

    def test_unknown_experiment_yields_no_checks(self):
        assert evaluate_experiment(result_with("ext_custom", {})) == []


class TestFig06aChecks:
    def _data(self, naive, spart, rollover, elastic):
        return {"series": {
            "naive": {"AVG": naive}, "spart": {"AVG": spart},
            "rollover": {"AVG": rollover}, "elastic": {"AVG": elastic}}}

    def test_paper_numbers_pass(self):
        checks = evaluate_experiment(result_with(
            "fig06a", self._data(0.206, 0.788, 0.884, 0.86)))
        assert all(check.holds for check in checks)

    def test_inverted_ordering_fails(self):
        checks = evaluate_experiment(result_with(
            "fig06a", self._data(0.9, 0.5, 0.4, 0.4)))
        assert any(not check.holds for check in checks)


class TestFig09Checks:
    def test_paper_numbers_pass(self):
        data = {"series": {"spart": {"AVG": 1.116},
                           "rollover": {"AVG": 1.028}}}
        checks = evaluate_experiment(result_with("fig09", data))
        assert all(check.holds for check in checks)

    def test_excess_overshoot_fails(self):
        data = {"series": {"spart": {"AVG": 1.1},
                           "rollover": {"AVG": 1.4}}}
        checks = evaluate_experiment(result_with("fig09", data))
        assert any(not check.holds for check in checks)


class TestFig05Checks:
    def test_paper_like_histogram_passes(self):
        data = {"histogram": {"0-1%": 300, "1-5%": 250, "5-10%": 100,
                              "10-20%": 40, "20+%": 24},
                "total": 900, "missed": 714, "overshoot": 1.013}
        checks = evaluate_experiment(result_with("fig05", data))
        assert all(check.holds for check in checks)

    def test_distant_misses_fail(self):
        data = {"histogram": {"0-1%": 0, "1-5%": 10, "5-10%": 0,
                              "10-20%": 200, "20+%": 300},
                "total": 900, "missed": 510, "overshoot": 1.0}
        checks = evaluate_experiment(result_with("fig05", data))
        assert any(not check.holds for check in checks)


class TestThroughputChecks:
    def test_none_averages_tolerated(self):
        data = {"series": {"spart": {"AVG": None},
                           "rollover": {"AVG": 0.3}}}
        checks = evaluate_experiment(result_with("fig08a", data))
        assert checks and checks[0].holds


def averages(**values):
    return {"series": {name: {"AVG": value} for name, value in values.items()}}


def fig08a(*rollover):
    goals = dict(zip(("50%", "65%", "80%", "95%"), rollover))
    return {"series": {"spart": {"50%": 0.4, "95%": 0.0, "AVG": 0.2},
                       "rollover": dict(goals, AVG=0.3)}}


def regimes(**values):
    """``ext_sharing_regimes`` data: ``regime=(STP, fairness)``."""
    return {"summary": {regime: {"STP": stp, "fairness": fairness}
                        for regime, (stp, fairness) in values.items()}}


def controllers(**scores):
    """``ext_controllers`` data: ``policy=(nonqos_stp, qos_met_rate)``."""
    return {"aggregate": {policy: {"nonqos_stp": stp, "qos_met_rate": met}
                          for policy, (stp, met) in scores.items()}}


#: Claims folded in from the retired per-figure benchmarks, those of the
#: retired controller comparison and the sharing-regime claims: experiment,
#: paper-like data (every claim holds; fast-preset numbers for
#: ext_controllers and ext_sharing_regimes), and edge data with the
#: verdict of each claim on it.
FOLDED = {
    "fig06a-naive-misses-most": (
        "fig06a", averages(naive=0.206, spart=0.788, rollover=0.884,
                           elastic=0.86),
        averages(naive=0.65, spart=0.9, rollover=0.95, elastic=0.9),
        [True, False, True, True]),
    "fig06a-rollover-within-0.05": (
        "fig06a", averages(naive=0.206, spart=0.788, rollover=0.884,
                           elastic=0.86),
        averages(naive=0.2, spart=0.8, rollover=0.74, elastic=0.8),
        [True, True, False, True]),
    "fig06b-keeps-its-slack": (
        "fig06b", averages(spart=0.788, rollover=0.884),
        averages(spart=0.5, rollover=0.47), [True]),
    "fig06c-has-no-slack": (
        "fig06c", averages(spart=0.167, rollover=0.5),
        averages(spart=0.5, rollover=0.47), [False]),
    "fig08a-falls-with-goal": (
        "fig08a", fig08a(0.47, 0.31, 0.2, 0.048),
        fig08a(0.048, 0.2, 0.31, 0.47), [True, False]),
    "fig09-meets-goal": (
        "fig09", averages(spart=1.116, rollover=1.028),
        averages(spart=1.116, rollover=0.98), [False, True, True]),
    "sec48c-loss-bound": (
        "sec48c", {"gain": -0.049}, {"gain": -0.3}, [False]),
    "ext_epoch_length": (
        "ext_epoch_length",
        {"series": {"rollover": {"600": 0.917, "1200": 1.0, "2400": 0.917}}},
        {"series": {"rollover": {"600": 0.1, "1200": 0.9, "2400": 0.4}}},
        [False]),
    "ext_scheduler": (
        "ext_scheduler",
        {"series": {"gto": {"QoSreach": 0.917}, "lrr": {"QoSreach": 1.0}}},
        {"series": {"gto": {"QoSreach": 0.917}, "lrr": {"QoSreach": 0.25}}},
        [False, False]),
    "ext_unmanaged": (
        "ext_unmanaged", averages(smk=0.25, rollover=0.875),
        averages(smk=0.875, rollover=0.25), [False]),
    "ext_sharing_regimes": (
        "ext_sharing_regimes",
        regimes(serial=(0.745, 0.264), smk=(0.986, 0.390),
                **{"fair-smk": (0.961, 0.849)}, spart=(0.887, 0.452)),
        regimes(serial=(0.99, 0.264), smk=(0.986, 0.390),
                **{"fair-smk": (0.961, 0.45)}, spart=(0.887, 0.452)),
        [False, False]),
    "ext_fusion": (
        "ext_fusion",
        {"fused_stp": 1.067, "smk_stp": 0.981, "qos_reach": 11 / 12},
        {"fused_stp": 0.3, "smk_stp": 0.981, "qos_reach": 0.25},
        [False, False]),
    "ext_controllers": (
        "ext_controllers",
        controllers(naive=(0.375, 0.0), rollover=(0.343, 1.0),
                    pid=(0.356, 1.0)),
        controllers(naive=(0.375, 1.0), rollover=(0.343, 1.0),
                    pid=(0.330, 0.75)),
        [False, False, False]),
}


class TestFoldedClaims:
    @pytest.mark.parametrize("case", sorted(FOLDED))
    def test_paper_like_data_passes(self, case):
        experiment_id, paper_like, _, _ = FOLDED[case]
        checks = evaluate_experiment(result_with(experiment_id, paper_like))
        assert checks and all(check.holds for check in checks)

    @pytest.mark.parametrize("case", sorted(FOLDED))
    def test_edge_data_gets_the_expected_verdicts(self, case):
        experiment_id, _, edge, verdicts = FOLDED[case]
        checks = evaluate_experiment(result_with(experiment_id, edge))
        assert [check.holds for check in checks] == verdicts

    def test_sec48c_label_states_its_threshold(self):
        (check,) = evaluate_experiment(result_with("sec48c", {"gain": 0.1}))
        assert "under 25%" in check.description


class TestRender:
    def test_render_includes_table_and_verdicts(self):
        result = result_with("fig09", {})
        checks = [ShapeCheck("claim text", True, "x=1"),
                  ShapeCheck("failing claim", False, "y=2")]
        text = render_comparison(result, checks)
        assert "table-fig09" in text
        assert "claim text" in text
        assert "**no**" in text
        assert PAPER_REPORTED["fig09"] in text

    def test_render_without_checks(self):
        text = render_comparison(result_with("table1", {}), [])
        assert "table-table1" in text
        assert "| shape claim |" not in text
