"""Smoke tests for the experiment suite on the tiny 'smoke' preset.

These verify structure and the paper's qualitative orderings, not absolute
numbers; ``repro all --preset fast -o benchmarks/results`` regenerates the
figures at the fast preset, and :mod:`repro.harness.paper` holds the shape
claims they are scored against.  ``tests/data/smoke_digests.json`` pins
every smoke figure's output digest and the claims that fail at smoke; on a
mismatch the test prints the measured document, which is the new pin when
figures move on purpose.
"""

import json
import math
import pathlib

import pytest

from repro.harness.cache import CaseCache
from repro.harness.expdb import ExperimentDB
from repro.harness.experiments import (CONTROLLER_POLICIES, ExperimentResult,
                                       ExperimentSuite)
from repro.harness.metrics import score_case
from repro.harness.paper import evaluate_experiment
from repro.harness.presets import CONTROLLER_WORKLOADS, experiment_preset
from repro.harness.report import output_digest
from repro.sim import GPUSimulator

#: Every smoke experiment's output digest and the shape claims known to
#: fail at smoke scale.
SMOKE_PIN = pathlib.Path(__file__).parent / "data" / "smoke_digests.json"


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(experiment_preset("smoke"))


class TestTables:
    def test_table1_matches_machine(self, suite):
        result = suite.table1()
        rows = result.data["rows"]
        assert rows["# of SMs"] == suite.preset.gpu.num_sms
        assert rows["Sched. Policy"] == "GTO"
        assert "Registers" in result.table

    def test_paper_preset_table1_is_the_papers_machine(self):
        # Table 1 reads the machine description; it simulates nothing.
        suite = ExperimentSuite(experiment_preset("paper"), cache=None,
                                expdb=None)
        rows = suite.table1().data["rows"]
        assert rows["# of SMs"] == 16
        assert rows["Registers"] == "256KB"
        assert rows["Threads"] == 2048
        assert rows["Sched. Policy"] == "GTO"

    def test_table2_feature_matrix(self, suite):
        result = suite.table2()
        features = dict((row[0], row[1:]) for row in result.data["features"])
        # The paper's design (last column) has every capability.
        fine_grained = [row[-1] for row in result.data["features"][1:]]
        assert all(flag == "y" for flag in fine_grained)
        assert features["Software/Hardware"][-1] == "H"


class TestFigureStructure:
    def test_fig06a_has_all_schemes_and_goals(self, suite):
        result = suite.fig06a()
        series = result.data["series"]
        assert set(series) == {"spart", "naive", "elastic", "rollover"}
        for values in series.values():
            assert "AVG" in values
            assert all(0.0 <= v <= 1.0 for v in values.values())

    def test_fig05_histogram_buckets(self, suite):
        result = suite.fig05()
        histogram = result.data["histogram"]
        assert set(histogram) == {"0-1%", "1-5%", "5-10%", "10-20%", "20+%"}
        assert result.data["missed"] == sum(histogram.values())
        assert result.data["missed"] <= result.data["total"]

    def test_fig06b_and_c_policies(self, suite):
        for result in (suite.fig06b(), suite.fig06c()):
            assert set(result.data["series"]) == {"spart", "rollover"}

    def test_fig07_covers_benchmarks_and_classes(self, suite):
        result = suite.fig07()
        series = result.data["series"]["rollover"]
        for klass in ("C+C", "C+M", "M+M"):
            assert klass in series

    def test_fig09_overshoot_at_least_one(self, suite):
        result = suite.fig09()
        for policy, values in result.data["series"].items():
            for value in values.values():
                if value is not None:
                    assert value >= 0.9

    def test_fig14_improvement_series(self, suite):
        result = suite.fig14()
        assert "improvement" in result.data["series"]

    def test_run_by_id(self, suite):
        result = suite.run("table1")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "table1"

    def test_run_unknown_id(self, suite):
        with pytest.raises(ValueError):
            suite.run("fig99")

    def test_experiment_list_complete(self):
        """Every table/figure of the paper has an experiment entry."""
        ids = set(ExperimentSuite.EXPERIMENTS)
        for required in ("table1", "table2", "fig05", "fig06a", "fig06b",
                         "fig06c", "fig07", "fig08a", "fig08b", "fig08c",
                         "fig09", "fig10", "fig11", "fig12", "fig13",
                         "fig14", "sec48a", "sec48b", "sec48c"):
            assert required in ids


class TestExtensions:
    def test_ext_epoch_length_structure(self, suite):
        result = suite.ext_epoch_length()
        values = result.data["series"]["rollover"]
        assert len(values) == 3
        assert all(0.0 <= v <= 1.0 for v in values.values())

    def test_ext_scheduler_both_policies(self, suite):
        result = suite.ext_scheduler()
        assert set(result.data["series"]) == {"gto", "lrr"}

    def test_ext_unmanaged_rollover_wins(self, suite):
        series = suite.ext_unmanaged().data["series"]
        assert series["rollover"]["AVG"] >= series["smk"]["AVG"]

    def test_ext_sharing_regimes_summary(self, suite):
        # One registered sweep of the four regimes; its shape claims (SMK
        # beats serial on STP, fair-SMK is the fairest) hold at smoke.
        result = suite.run("ext_sharing_regimes")
        assert set(result.data["summary"]) == {"serial", "smk", "fair-smk",
                                               "spart"}
        assert len(result.provenance) == 1
        checks = evaluate_experiment(result)
        assert len(checks) == 2
        assert all(check.holds for check in checks), checks

    def test_ext_controllers_scores_every_case_from_telemetry(self, suite):
        # Each per-workload row is the score of a telemetry-bearing record
        # of that policy and workload, and each aggregate row is the mean
        # of the policy's per-workload rows.
        data = suite.ext_controllers().data
        names = ["+".join(kernels) for kernels in CONTROLLER_WORKLOADS]
        cases = suite._cases(CONTROLLER_POLICIES, (0.60,), 1,
                             units=CONTROLLER_WORKLOADS, telemetry=True)
        assert list(data["workloads"]) == names
        assert list(data["aggregate"]) == list(CONTROLLER_POLICIES)
        for policy in CONTROLLER_POLICIES:
            for name, record in zip(names, cases[policy, 0.60]):
                assert record.policy == policy and record.telemetry
                assert (data["workloads"][name][policy]
                        == score_case(record, name).metrics())
            for metric, value in data["aggregate"][policy].items():
                rows = [data["workloads"][name][policy][metric]
                        for name in names]
                assert value == pytest.approx(math.fsum(rows) / len(rows))


class TestPaperShapeClaims:
    """The qualitative orderings the paper reports must hold even at the
    smoke scale (these are the headline results)."""

    def test_rollover_reaches_more_than_naive(self, suite):
        series = suite.fig06a().data["series"]
        assert series["rollover"]["AVG"] > series["naive"]["AVG"]

    def test_history_reaches_more_than_naive(self, suite):
        series = suite.sec48b().data["series"]
        assert series["history"]["AVG"] >= series["naive"]["AVG"]

    def test_rollover_overshoots_less_than_spart(self, suite):
        series = suite.fig09().data["series"]
        if series["spart"]["AVG"] and series["rollover"]["AVG"]:
            assert series["rollover"]["AVG"] <= series["spart"]["AVG"] + 0.05

    def test_rollover_time_hurts_nonqos_throughput(self, suite):
        series = suite.fig11().data["series"]
        rollover = series["rollover"]["AVG"]
        timed = series["rollover-time"]["AVG"]
        if rollover is not None and timed is not None:
            assert timed <= rollover * 1.1


class TestProvenance:
    """suite.run() must thread experiment-store provenance into the result
    (ISSUE 8): which registered experiments the table was computed from."""

    def test_run_attaches_experiment_provenance(self, suite):
        result = suite.run("fig06a")
        assert isinstance(result, ExperimentResult)
        assert result.provenance, "sweeping figures must cite experiments"
        for experiment_id, spec_hash in result.provenance:
            assert experiment_id.startswith("exp-")
            assert experiment_id == f"exp-{spec_hash[:12]}"
            assert len(spec_hash) == 64

    def test_run_appends_provenance_footer_to_table(self, suite):
        result = suite.run("fig06a")
        footer = result.table.splitlines()[-1]
        assert footer.startswith("[provenance] code salt ")
        for experiment_id, _ in result.provenance:
            assert experiment_id in footer

    def test_footer_carries_the_output_digest(self, suite):
        result = suite.run("fig06a")
        assert f"; output {output_digest(result.data)};" in result.table

    def test_sec48a_cites_both_of_its_grids(self, suite):
        # With and without the preemption cost: two machines, two grids.
        result = suite.run("sec48a")
        assert len(result.provenance) == 2
        assert len({spec for _, spec in result.provenance}) == 2

    @pytest.fixture(scope="class")
    def smoke_stores(self, tmp_path_factory):
        """Every smoke experiment regenerated in fresh stores: the stores'
        directory, each experiment's result, and the path of every
        ExperimentDB the sweeps constructed on the way."""
        root = tmp_path_factory.mktemp("smoke-stores")
        opened = []

        class CountingDB(ExperimentDB):
            def __init__(self, path=None):
                opened.append(str(path))
                super().__init__(path)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.harness.expdb.ExperimentDB", CountingDB)
            fresh = ExperimentSuite(experiment_preset("smoke"),
                                    cache=CaseCache(root / "cache"),
                                    expdb=ExperimentDB(root / "exp.sqlite"))
            results = {experiment_id: fresh.run(experiment_id)
                       for experiment_id in ExperimentSuite.EXPERIMENTS}
        return root, results, opened

    def test_smoke_figures_sweep_once_and_match_their_pin(self, smoke_stores):
        # Each figure registers its grid once and slices the records: no
        # sweep falls back to a throwaway in-memory store.  Regenerated in
        # fresh stores, every output digest and the set of failing shape
        # claims equal the pin; the code salt is not pinned, so a change
        # that keeps behaviour passes.
        _, results, opened = smoke_stores
        digests, failing = {}, []
        for experiment_id, result in results.items():
            assert result.experiment_id == experiment_id
            digests[experiment_id] = output_digest(result.data)
            failing.extend(f"{experiment_id}: {check.description}"
                           for check in evaluate_experiment(result)
                           if not check.holds)
        assert opened == []
        measured = {"preset": "smoke", "digests": digests,
                    "failing_claims": sorted(failing)}
        assert measured == json.loads(SMOKE_PIN.read_text()), (
            f"smoke figures moved; if on purpose, this is the new "
            f"{SMOKE_PIN.name}:\n"
            + json.dumps(measured, indent=2, sort_keys=True))

    def test_warm_regeneration_simulates_nothing(self, smoke_stores,
                                                 monkeypatch):
        # Rerun over the stores the cold pass filled, every experiment is
        # answered from them: any simulation raises, and every table comes
        # back byte for byte.  Everything but the two static tables cites
        # the sweeps it read.
        root, cold, _ = smoke_stores

        def refuse(self, num_cycles):
            raise AssertionError("a warm regeneration simulated")

        monkeypatch.setattr(GPUSimulator, "run", refuse)
        warm = ExperimentSuite(experiment_preset("smoke"),
                               cache=CaseCache(root / "cache"),
                               expdb=ExperimentDB(root / "exp.sqlite"))
        for experiment_id in ExperimentSuite.EXPERIMENTS:
            result = warm.run(experiment_id)
            assert result.table == cold[experiment_id].table
            assert (output_digest(result.data)
                    == output_digest(cold[experiment_id].data))
            assert (bool(result.provenance)
                    == (experiment_id not in ("table1", "table2")))

    def test_tables_carry_salt_but_no_experiments(self, suite):
        # table1 reads the machine config; it sweeps nothing.
        result = suite.run("table1")
        assert result.provenance == ()
        assert "[provenance] code salt " in result.table
        assert "experiments:" not in result.table
