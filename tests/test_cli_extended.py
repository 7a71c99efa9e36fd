"""CLI coverage for the analysis commands added beyond the tables."""

import pathlib

import pytest

from repro.cli import main


class TestAnalysisCommands:
    def test_bus(self, capsys):
        assert main(["--quick", "--processors", "3", "bus"]) == 0
        out = capsys.readouterr().out
        assert "IPC-bus utilization" in out
        assert "rho=" in out

    def test_speedup(self, capsys):
        assert (
            main(
                [
                    "--quick",
                    "--processors",
                    "4",
                    "speedup",
                    "--apps",
                    "Primes1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup curve" in out
        assert "efficiency" in out

    def test_advise(self, capsys):
        assert (
            main(
                [
                    "--quick",
                    "--processors",
                    "3",
                    "advise",
                    "--apps",
                    "Primes3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "layout advice" in out

    def test_false_sharing(self, capsys):
        assert main(["--quick", "--processors", "3", "false-sharing"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "paper 0.66" in out

    def test_optimal(self, capsys):
        assert main(["--quick", "--processors", "3", "optimal"]) == 0
        out = capsys.readouterr().out
        assert "actual/optimal" in out

    def test_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--quick", "--processors", "2", "report"]) == 0
        report = pathlib.Path(tmp_path, "REPORT.md")
        assert report.exists()
        text = report.read_text()
        assert "## Table 3" in text
        assert "## Figure 2" in text

    def test_mix(self, capsys):
        assert (
            main(
                [
                    "--quick",
                    "--processors",
                    "3",
                    "mix",
                    "--apps",
                    "parmult",  # lookup is case-insensitive
                    "Primes1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "application mix" in out
        assert "standalone" in out

    def test_alpha(self, capsys):
        assert main(["--quick", "--processors", "3", "alpha"]) == 0
        out = capsys.readouterr().out
        assert "α(measured)" in out
