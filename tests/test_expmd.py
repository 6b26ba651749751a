"""Tests for the EXPERIMENTS.md generator."""

import pathlib

from repro.harness import expmd
from repro.harness.experiments import ExperimentSuite
from repro.harness.expmd import generate


class TestGenerate:
    def test_subset_generation(self, tmp_path):
        path = tmp_path / "EXP.md"
        text = generate("smoke", experiments=("table1", "table2"), path=path)
        assert path.exists()
        assert path.read_text() == text
        assert "Shape-claim scorecard" in text
        assert "Table 1" in text
        assert "comparison with prior work" in text
        assert "preset **smoke**" in text

    def test_scorecard_counts_checks(self, tmp_path):
        text = generate("smoke", experiments=("table1",))
        # Tables carry no shape checks; scorecard must be 0/0.
        assert "0/0" in text

    def test_header_documents_deviations(self):
        text = generate("smoke", experiments=("table1",))
        assert "Known deviations" in text
        assert "DESIGN.md" in text

    def test_main_exits_1_when_a_claim_fails(self, tmp_path, monkeypatch):
        # At smoke, fig06a's "Naive is by far the weakest" fails (pinned in
        # tests/data/smoke_digests.json); the tables carry no claims.
        output = tmp_path / "EXP.md"
        argv = ["--preset", "smoke", "-o", str(output)]
        for experiments, status in ((("table1",), 0), (("fig06a",), 1)):
            monkeypatch.setattr(ExperimentSuite, "EXPERIMENTS", experiments)
            assert expmd.main(argv) == status
            assert "Shape-claim scorecard" in output.read_text()
