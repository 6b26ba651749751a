"""`repro lint` CLI behavior: exit codes, output formats, explain, dispatch."""

import json
import pathlib

import pytest

from repro.analysis.cli import build_lint_parser, main as lint_main
from repro.cli import main as repro_main

REPO = pathlib.Path(__file__).resolve().parents[1]

DIRTY = "import time\nSTAMP = time.time()\n"
CLEAN = "def stamp(clock):\n    return clock()\n"


def project(tmp_path, source=DIRTY):
    target = tmp_path / "mod.py"
    target.write_text(source)
    return target


@pytest.fixture
def private_lint_cache(tmp_path, monkeypatch):
    """Module records of temporary files go to the test's own directory.
    In the checkout's cache they outlive the run, keyed by a temporary
    path that a later run can repeat and then read back."""
    monkeypatch.setenv("REPRO_LINT_CACHE", str(tmp_path / "lint-cache"))


class TestParser:
    def test_defaults(self):
        args = build_lint_parser().parse_args([])
        assert args.paths == []
        assert not args.strict
        assert args.rules is None
        assert args.format == "human"

    def test_rules_accumulate(self):
        args = build_lint_parser().parse_args(
            ["--rule", "DET001", "--rule", "LAY001"])
        assert args.rules == ["DET001", "LAY001"]


@pytest.mark.usefixtures("private_lint_cache")
class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = project(tmp_path, CLEAN)
        assert lint_main([str(target)]) == 0
        assert lint_main(["--strict", str(target)]) == 0

    def test_findings_without_strict_exit_zero(self, tmp_path, capsys):
        target = project(tmp_path)
        assert lint_main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_findings_with_strict_exit_one(self, tmp_path, capsys):
        target = project(tmp_path)
        assert lint_main(["--strict", str(target)]) == 1

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = project(tmp_path, CLEAN)
        assert lint_main(["--rule", "NOPE999", str(target)]) == 2
        err = capsys.readouterr().err
        assert "NOPE999" in err and "known rules" in err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "ghost.py")]) == 2

    def test_rule_selection_limits_findings(self, tmp_path, capsys):
        target = project(tmp_path)
        # DET003 alone does not see the wall-clock read.
        assert lint_main(["--strict", "--rule", "DET003", str(target)]) == 0

    def test_noqa_keeps_strict_green(self, tmp_path, capsys):
        target = project(
            tmp_path, "import time\nSTAMP = time.time()  # repro: noqa\n")
        assert lint_main(["--strict", str(target)]) == 0
        err = capsys.readouterr().err
        assert "1 noqa-suppressed" in err


@pytest.mark.usefixtures("private_lint_cache")
class TestOutputFormats:
    def test_json_report(self, tmp_path, capsys):
        target = project(tmp_path)
        assert lint_main(["--format", "json", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["new"] == 1
        assert payload["counts"]["modules"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET001"
        assert finding["line"] == 2
        assert payload["suppressed"] == []

    def test_json_report_lists_suppressed_findings(self, tmp_path, capsys):
        target = project(
            tmp_path, "import time\nSTAMP = time.time()  # repro: noqa\n")
        assert lint_main(["--format", "json", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["counts"]["suppressed"] == 1
        (suppressed,) = payload["suppressed"]
        assert (suppressed["rule"], suppressed["line"]) == ("DET001", 2)

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "FLOW001", "FLOAT001", "EFFECT001",
                        "LAY001", "SALT001"):
            assert rule_id in out

    def test_summary_reports_flow_cache_split(self, tmp_path, capsys):
        target = project(tmp_path, CLEAN)
        assert lint_main([str(target)]) == 0
        err = capsys.readouterr().err
        assert "flow summaries: 1 computed, 0 cached" in err


class TestExplain:
    def test_explain_prints_doc_and_example_trace(self, capsys):
        assert lint_main(["--explain", "FLOW001"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("FLOW001  [error/project]")
        # The long-form doc ships an example source→sink trace.
        assert "wall-clock read time.time()" in out
        assert "identity sink" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert lint_main(["--explain", "effect002"]) == 0
        out = capsys.readouterr().out
        assert "POLICY_CONTEXT_ACTUATORS" in out

    def test_explain_falls_back_to_summary_for_syntactic_rules(self, capsys):
        assert lint_main(["--explain", "DET001"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("DET001  [error/module]")

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--explain", "NOPE999"]) == 2
        err = capsys.readouterr().err
        assert "NOPE999" in err and "known rules" in err

    def test_every_rule_is_explainable(self, capsys):
        from repro.analysis.core import all_rules
        for rule_id in sorted(all_rules()):
            assert lint_main(["--explain", rule_id]) == 0
            assert rule_id in capsys.readouterr().out


class TestDocsCatalogSync:
    def test_docs_catalog_matches_the_registry(self):
        from repro.analysis.core import all_rules
        import re
        table = (REPO / "docs" / "static_analysis.md").read_text()
        documented = set(re.findall(r"^\| `([A-Z]+[0-9]+)` \|", table,
                                    flags=re.MULTILINE))
        assert documented == set(all_rules())


@pytest.mark.usefixtures("private_lint_cache")
class TestReproCliDispatch:
    def test_lint_subcommand_routes_through_main_cli(self, tmp_path, capsys):
        target = project(tmp_path)
        assert repro_main(["lint", "--strict", str(target)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out


class TestSelfCheck:
    def test_strict_lint_is_clean_on_the_shipped_tree(self, capsys):
        # tests/ and benchmarks/ are linted too (as in CI) — the flow
        # rules must hold everywhere results or fixtures are produced.
        paths = [str(REPO / "src"), str(REPO / "examples"),
                 str(REPO / "tests"), str(REPO / "benchmarks")]
        code = repro_main(["lint", "--strict", *paths])
        output = capsys.readouterr()
        assert code == 0, output.out + output.err
