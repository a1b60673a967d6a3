"""Tests for the ``lubt`` CLI."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_bench_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--bench", "bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.bench == "prim1"
        assert args.lower == 0.8
        assert args.upper == 1.2


class TestCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("prim1", "prim2", "r1", "r3"):
            assert name in out

    def test_solve(self, capsys):
        assert main(["solve", "--bench", "r1", "--sinks", "12"]) == 0
        out = capsys.readouterr().out
        assert "tree cost" in out
        assert "backend" in out

    def test_table1(self, capsys):
        assert main(["table1", "--bench", "prim1", "--sinks", "16"]) == 0
        assert "LUBT cost" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert (
            main(["table2", "--bench", "prim1", "--sinks", "16", "--skew", "0.5"])
            == 0
        )
        assert "*" in capsys.readouterr().out

    def test_table3(self, capsys):
        assert main(["table3", "--bench", "r1", "--sinks", "14"]) == 0
        assert "lower bound" in capsys.readouterr().out

    def test_resumed_journal_run_prints_the_same_stdout(self, capsys, tmp_path):
        """The journal's summary goes to stderr: a ``--resume`` run that
        replays every solve prints the first run's stdout byte for
        byte."""
        journal = str(tmp_path / "j.jsonl")
        argv = ["table3", "--bench", "r1", "--sinks", "14", "--journal", journal]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main([*argv, "--resume"]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "journal" not in first.out
        solved = re.search(r"0 solve\(s\) replayed, (\d+) appended", first.err)
        assert solved and int(solved.group(1)) > 0
        assert f"{solved.group(1)} solve(s) replayed, 0 appended" in second.err

    def test_fig8_with_plot(self, capsys):
        assert main(["fig8", "--bench", "prim2", "--sinks", "14", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "#" in out

    def test_solve_from_file(self, capsys, tmp_path):
        f = tmp_path / "net.pins"
        f.write_text("source 5 5\n0 0\n10 0\n10 10\n")
        assert main(["solve", "--file", str(f), "--upper", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "net.pins" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "--bench", "prim1", "--sinks", "10"]) == 0
        out = capsys.readouterr().out
        assert "shadow prices" in out
        assert "d cost/d l" in out

    def test_zeroskew(self, capsys):
        assert main(["zeroskew", "--bench", "r1", "--sinks", "12"]) == 0
        out = capsys.readouterr().out
        assert "common delay" in out

    def test_svg_export(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "t.svg"
        assert (
            main(
                [
                    "svg",
                    "--bench",
                    "prim1",
                    "--sinks",
                    "10",
                    "--output",
                    str(out_file),
                ]
            )
            == 0
        )
        assert out_file.read_text().startswith("<svg")
        assert "wrote" in capsys.readouterr().out
