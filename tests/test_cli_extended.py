"""CLI coverage for the analysis commands added beyond the tables."""

import pathlib
import re

import pytest

from repro.cli import main
from repro.obs.exporters import read_jsonl


class TestAnalysisCommands:
    def test_bus(self, capsys):
        assert main(["--quick", "--processors", "3", "bus"]) == 0
        out = capsys.readouterr().out
        assert "IPC-bus utilization" in out
        assert "rho=" in out

    def test_speedup(self, capsys, tmp_path):
        sink = tmp_path / "speedup.jsonl"
        assert (
            main(
                [
                    "--quick",
                    "--processors",
                    "4",
                    "speedup",
                    "--apps",
                    "Primes1",
                    "--json",
                    str(sink),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup curve" in out
        assert "efficiency" in out
        # One record per point of the printed curve.
        points = read_jsonl(sink)
        assert [(p["t"], p["application"]) for p in points] == [
            ("speedup_point", "Primes1")
        ] * 3
        assert [p["processors"] for p in points] == [1, 2, 4]
        assert points[0]["speedup"] == 1.0
        for point in points:
            assert f"{point['elapsed_us'] / 1e6:8.3f}s" in out

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

    def test_optimal(self, capsys, tmp_path):
        sink = tmp_path / "optimal.jsonl"
        argv = ["--quick", "--processors", "3", "optimal", "--json", str(sink)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # "Actual" is the protocol's cost, not the run's whole system
        # time, and a ratio against a near-zero optimum is not printed
        # (ParMult's gap is): nothing reads as hundreds of times optimal.
        ratios = [float(r) for r in re.findall(r"actual/optimal = +(\S+)", out)]
        assert ratios and max(ratios) < 10
        assert "actual-optimal =" in out
        rows = read_jsonl(sink)
        assert len(rows) == out.count(" pages)")
        for row in rows:
            assert row["t"] == "optimal"
            assert row["ratio"] == row["actual_us"] / row["optimal_us"]
            assert f"({row['n_pages']} pages)" in out

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
