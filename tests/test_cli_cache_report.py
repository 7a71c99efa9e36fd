"""The ``repro-numa cache`` and cache-backed ``report`` commands."""

import json

import pytest

from repro.cli import build_parser, main


def _warm(monkeypatch, tmp_path, apps=("ParMult",)):
    """Warm .repro-cache/ under *tmp_path* via the batch orchestrator."""
    monkeypatch.chdir(tmp_path)
    argv = ["--quick", "batch", "--apps", *apps]
    assert main(argv) == 0
    return tmp_path / ".repro-cache"


class TestParsing:
    def test_report_flags(self):
        args = build_parser().parse_args(
            [
                "report", "--from-cache", "--fill", "--missing",
                "--out", "r.md", "--tables", "t",
                "--require-cache-ratio", "1.0", "--apps", "ParMult",
            ]
        )
        assert args.from_cache and args.fill and args.missing
        assert args.out == "r.md" and args.tables == "t"
        assert args.require_cache_ratio == pytest.approx(1.0)
        assert args.apps == ["ParMult"]

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert not args.from_cache and not args.fill and not args.missing
        assert args.out == "REPORT.md"
        assert args.cache_dir is None  # resolved to .repro-cache at run time

    def test_cache_actions(self):
        args = build_parser().parse_args(["cache", "gc", "--corrupt"])
        assert args.action == "gc"
        assert args.corrupt and not args.schema_mismatch and not args.foreign
        assert build_parser().parse_args(["cache", "ls"]).action == "ls"


class TestReportFromCache:
    def test_warm_cache_serves_everything(self, tmp_path, capsys,
                                          monkeypatch):
        _warm(monkeypatch, tmp_path)
        out = tmp_path / "r.md"
        sink = tmp_path / "r.jsonl"
        argv = [
            "--quick", "report", "--apps", "ParMult",
            "--from-cache", "--out", str(out), "--json", str(sink),
            "--require-cache-ratio", "1.0",
        ]
        assert main(argv) == 0
        assert "executed 0" in capsys.readouterr().out
        records = [json.loads(l) for l in sink.read_text().splitlines()]
        summary = next(r for r in records if r["t"] == "report_summary")
        assert summary["executed"] == 0
        assert summary["cache_ratio"] == 1.0
        assert summary["missing"] == 0
        assert "(from cache)" in out.read_text()

    def test_regeneration_is_byte_identical(self, tmp_path, monkeypatch):
        _warm(monkeypatch, tmp_path)
        documents = []
        for name in ("a.md", "b.md"):
            assert main(
                [
                    "--quick", "report", "--apps", "ParMult",
                    "--from-cache", "--out", str(tmp_path / name),
                ]
            ) == 0
            documents.append((tmp_path / name).read_bytes())
        assert documents[0] == documents[1]

    def test_cold_cache_fails_required_ratio(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "--quick", "report", "--apps", "ParMult", "--from-cache",
                "--out", str(tmp_path / "r.md"),
                "--require-cache-ratio", "1.0",
            ]
        ) == 1
        assert "cache ratio" in capsys.readouterr().err
        # The report still renders, with the missing specs footnoted.
        assert "Missing specs" in (tmp_path / "r.md").read_text()

    def test_fill_simulates_only_the_missing_specs(self, tmp_path, capsys,
                                                   monkeypatch):
        _warm(monkeypatch, tmp_path)
        argv = [
            "--quick", "report", "--apps", "ParMult", "FFT",
            "--from-cache", "--fill", "--out", str(tmp_path / "r.md"),
            "--require-cache-ratio", "1.0",
        ]
        assert main(argv) == 0
        # ParMult's triple was cached; only FFT's three specs simulate.
        assert "executed 3" in capsys.readouterr().out

    def test_missing_lists_without_executing(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["--quick", "report", "--apps", "ParMult", "--missing"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 of 3 required specs missing" in out
        assert not (tmp_path / ".repro-cache").exists(), \
            "--missing is pure inspection"
        assert not (tmp_path / "REPORT.md").exists()

    def test_missing_empties_after_warming(self, tmp_path, capsys,
                                           monkeypatch):
        _warm(monkeypatch, tmp_path)
        sink = tmp_path / "m.jsonl"
        assert main(
            [
                "--quick", "report", "--apps", "ParMult", "--missing",
                "--json", str(sink),
            ]
        ) == 0
        assert "0 of 3 required specs missing" in capsys.readouterr().out
        records = [json.loads(l) for l in sink.read_text().splitlines()]
        assert not any(r["t"] == "report_missing_spec" for r in records)

    def test_tables_directory(self, tmp_path, monkeypatch):
        _warm(monkeypatch, tmp_path)
        assert main(
            [
                "--quick", "report", "--apps", "ParMult", "--from-cache",
                "--out", str(tmp_path / "r.md"),
                "--tables", str(tmp_path / "tables"),
            ]
        ) == 0
        names = sorted(p.name for p in (tmp_path / "tables").iterdir())
        assert names == [
            "table3.csv", "table3.tex", "table4.csv", "table4.tex",
        ]

    def test_default_path_runs_then_renders(self, tmp_path, capsys,
                                            monkeypatch):
        """Without --from-cache the required grid routes through batch."""
        monkeypatch.chdir(tmp_path)
        argv = [
            "--quick", "report", "--apps", "ParMult",
            "--out", str(tmp_path / "r.md"),
        ]
        assert main(argv) == 0
        assert "executed 3" in capsys.readouterr().out
        assert main(argv) == 0
        assert "executed 0" in capsys.readouterr().out, \
            "second run serves from the cache it just warmed"


@pytest.fixture
def dirty_cache(tmp_path, monkeypatch):
    """A warm cache with one foreign, one corrupt, one stale-schema file."""
    root = _warm(monkeypatch, tmp_path)
    (root / "notes.txt").write_text("foreign")
    entries = sorted(root.glob("*/*.json"))
    entries[0].write_text("{corrupt")
    stale = json.loads(entries[1].read_text())
    stale["schema"] = "repro-exp-cache/v0"
    entries[1].write_text(json.dumps(stale))
    return root


class TestSweepAgreesWithTheReport:
    def test_printed_gamma_equals_the_versus_section(self, tmp_path, capsys):
        """``sweep`` computes γ from batch rows, the report's
        move-threshold section from the cache table; same cache, same γ."""
        from repro.analysis.cachereport import (
            CacheDataset,
            threshold_versus_section,
        )

        cache = tmp_path / "cache"
        argv = [
            "--quick", "--processors", "3", "--cache-dir", str(cache),
            "sweep", "--apps", "ParMult", "Primes3", "--thresholds", "0", "4",
        ]
        assert main(argv) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if line.endswith("processors)"):
                application = line.split(":")[0]
            elif line.startswith("  ") and "thresh" not in line:
                cells = line.split()
                printed[application, int(cells[0])] = float(cells[-1])
        _, body, _ = threshold_versus_section(
            CacheDataset.load(cache), n_processors=3, quick=True
        )
        section = {}
        for line in body.splitlines():
            cells = line.strip("| ").split(" | ")
            if len(cells) == 6 and cells[1].isdigit():
                section[cells[0], int(cells[1])] = float(cells[-1])
        assert len(printed) == 4 and printed.keys() == section.keys()
        for key, gamma in printed.items():
            # Printed to 3 places, tabulated to 4.
            assert gamma == pytest.approx(section[key], abs=6e-4), key


class TestCacheCommand:
    def test_ls_lists_entries_and_skips(self, tmp_path, capsys, monkeypatch):
        root = _warm(monkeypatch, tmp_path)
        (root / "notes.txt").write_text("foreign")
        sink = tmp_path / "ls.jsonl"
        assert main(["cache", "ls", "--json", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "3 entries, 1 skipped" in out
        assert "[foreign] notes.txt" in out
        assert "ParMult" in out
        records = [json.loads(l) for l in sink.read_text().splitlines()]
        kinds = {r["t"] for r in records}
        assert kinds == {"cache_entry", "cache_skipped"}
        fps = [r["fingerprint"] for r in records if r["t"] == "cache_entry"]
        assert fps == sorted(fps) and all(len(fp) == 64 for fp in fps)

    def test_stats(self, dirty_cache, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries   1" in out  # 3 warmed - corrupt - stale
        assert "workload  ParMult: 1" in out
        assert "skipped   corrupt: 1" in out
        assert "skipped   schema-mismatch: 1" in out
        assert "skipped   foreign: 1" in out

    def test_gc_without_flags_is_a_dry_run(self, dirty_cache, capsys):
        assert main(["cache", "gc"]) == 0
        out = capsys.readouterr().out
        assert "would remove 3 file(s)" in out
        assert (dirty_cache / "notes.txt").exists()

    def test_gc_prunes_by_reason(self, dirty_cache, capsys):
        assert main(
            ["cache", "gc", "--schema-mismatch", "--corrupt", "--foreign"]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 3 file(s)" in out
        assert not (dirty_cache / "notes.txt").exists()
        # The surviving entry still serves a report.
        assert main(["cache", "stats"]) == 0
        assert "entries   1" in capsys.readouterr().out

    def test_gc_never_touches_valid_entries(self, tmp_path, capsys,
                                            monkeypatch):
        _warm(monkeypatch, tmp_path)
        assert main(["cache", "gc", "--corrupt", "--foreign"]) == 0
        assert "removed 0 file(s)" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries   3" in capsys.readouterr().out

    def test_gc_tmp_prunes_stale_leftovers_only(self, tmp_path, capsys,
                                                monkeypatch):
        """--tmp collects crashed-run leftovers but keeps fresh temp
        files a live batch may still be writing."""
        import os
        import time

        root = _warm(monkeypatch, tmp_path)
        fresh = root / ".tmp-live.json"
        fresh.write_text("{")
        stale = root / ".tmp-crashed.json"
        stale.write_text("{")
        past = time.time() - 7200
        os.utime(stale, (past, past))

        assert main(["cache", "gc", "--tmp"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 file(s)" in out
        assert ".tmp-crashed.json" in out
        assert fresh.exists() and not stale.exists()

        assert main(
            ["cache", "gc", "--tmp", "--tmp-min-age", "0"]
        ) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert not fresh.exists()
