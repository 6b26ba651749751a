"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.harness.experiments import ExperimentSuite


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig06a"])
        assert args.experiment == "fig06a"
        assert args.preset == "fast"
        assert args.output_dir is None

    def test_preset_choice(self):
        args = build_parser().parse_args(["table1", "--preset", "smoke"])
        assert args.preset == "smoke"

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--preset", "huge"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ExperimentSuite.EXPERIMENTS:
            assert experiment_id in out

    def test_table1_runs(self, capsys):
        assert main(["table1", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "GTO" in out

    def test_output_dir(self, tmp_path, capsys):
        assert main(["table2", "--preset", "smoke",
                     "-o", str(tmp_path)]) == 0
        written = tmp_path / "table2.txt"
        assert written.exists()
        assert "comparison with prior work" in written.read_text()

    def test_unknown_experiment_raises(self, tmp_path, monkeypatch, capsys):
        # The id is checked before the suite opens its stores: exit 2, the
        # valid ids on stderr, and no store file left behind.  'controllers
        # compare' is the command the ext_controllers experiment replaced.
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path / "exp.sqlite"))
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        for argv in (["fig99", "--preset", "smoke"],
                     ["controllers", "compare"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unknown experiment {argv[0]!r}" in captured.err
            for experiment_id in ExperimentSuite.EXPERIMENTS:
                assert experiment_id in captured.err
        assert sorted(tmp_path.iterdir()) == []

    def test_stray_word_after_an_experiment_exits_2(self, tmp_path,
                                                   monkeypatch, capsys):
        # Only 'cache' takes a subcommand.  Anywhere else the word is
        # refused with the usage line before any store is opened.
        monkeypatch.setenv("REPRO_EXPDB", str(tmp_path / "exp.sqlite"))
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        for argv in (["table1", "clear", "--preset", "smoke"],
                     ["list", "extra"], ["all", "stats"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: repro-gpu-qos")
            assert f"unexpected argument {argv[1]!r}" in captured.err
        assert sorted(tmp_path.iterdir()) == []


class TestTraceCommand:
    def test_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "case.jsonl"
        assert main(["trace", "mri-q", "lbm", "--preset", "smoke",
                     "-o", str(out)]) == 0
        from repro.trace import read_trace
        with out.open() as stream:
            meta, records = read_trace(stream)
        assert meta["kernels"] == ["mri-q", "lbm"]
        assert meta["policy"] == "rollover"
        assert records
        assert records[0].epoch_index == 0

    def test_stdout_by_default(self, capsys):
        assert main(["trace", "mri-q", "lbm", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        import io
        from repro.trace import read_trace
        meta, records = read_trace(io.StringIO(out))
        assert meta["preset"] == "smoke"
        assert records

    def test_policy_and_qos_options(self, tmp_path):
        out = tmp_path / "trio.jsonl"
        assert main(["trace", "sgemm", "mri-q", "lbm", "--qos", "2",
                     "--goal", "0.25", "--policy", "naive",
                     "--preset", "smoke", "-o", str(out)]) == 0
        from repro.trace import read_trace
        with out.open() as stream:
            meta, records = read_trace(stream)
        assert meta["qos"] == [True, True, False]
        assert meta["goal_fraction"] == 0.25
        assert [k.name for k in records[0].kernels] == ["sgemm", "mri-q",
                                                        "lbm"]

    def test_rejects_bad_qos_count(self, capsys):
        assert main(["trace", "sgemm", "lbm", "--qos", "3",
                     "--preset", "smoke"]) == 2

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["trace", "sgemm", "lbm", "--policy", "bogus"])
