"""Report-from-cache bench — regeneration runs nothing and changes nothing.

The cache-backed reporting layer (:mod:`repro.analysis.cachereport`)
earns its place only if a warmed ``.repro-cache/`` really is the system
of record: regenerating the full report must execute **zero** specs, be
byte-identical across invocations, and serve every required spec from
the cache.  This bench pins all three and refreshes the committed
``_artifacts/report_from_cache/`` bundle — REPORT.md, the Table 3/4
CSV/LaTeX files, and the fingerprint manifest — through the exact same
code path ``repro-numa report --from-cache --tables`` uses.
"""

from __future__ import annotations

import json

from repro.analysis.cachereport import CacheDataset
from repro.analysis.repro_report import emit_tables, generate_cache_report
from repro.exp.batch import run_batch
from repro.exp.cache import ResultCache
from repro.exp.grid import flatten, seed_fan, table3_grid, threshold_grid

from conftest import ARTIFACTS, save_artifact

BUNDLE = "report_from_cache"


def _warm(cache: ResultCache):
    """The quick evaluation matrix plus a sweep and a chaos fan.

    Mirrors what ``repro-numa --quick batch`` warms for each of its
    ``--grid`` choices, so the committed bundle shows every report
    section populated (tables, versus-threshold, seed fans).
    """
    specs = flatten(table3_grid(quick=True))
    specs += flatten(
        threshold_grid(["Primes3"], [0, 2, 4, 8], quick=True)
    )
    specs += seed_fan("ParMult", "transient", [0, 1, 2], quick=True)
    return run_batch(specs, cache=cache), specs


def test_report_from_cache_is_pure_and_byte_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    batch, specs = _warm(cache)
    assert batch.executed == len({s.fingerprint() for s in specs})

    def regenerate():
        # A fresh scan each time: identical cache in, identical text out.
        dataset = CacheDataset.load(cache.root)
        return generate_cache_report(dataset, quick=True)

    first = regenerate()
    second = regenerate()

    assert first.executed == 0, "report generation must simulate nothing"
    assert first.join.missing == []
    assert first.join.cache_ratio == 1.0
    assert first.document == second.document
    assert first.sha256 == second.sha256

    # Refresh the committed bundle through the CLI's own emitters.
    bundle_dir = ARTIFACTS / BUNDLE
    bundle_dir.mkdir(parents=True, exist_ok=True)
    (bundle_dir / "REPORT.md").write_text(first.document, encoding="utf-8")
    emit_tables(first.join.evaluation, bundle_dir)
    (bundle_dir / "manifest.json").write_text(
        json.dumps(first.manifest_records(), indent=2) + "\n",
        encoding="utf-8",
    )
    save_artifact(
        "bench_report.json",
        json.dumps(
            {
                "t": "bench_report",
                "specs_warmed": len(specs),
                "cache_entries": first.cache_entries,
                "required": first.join.required,
                "served_from_cache": len(first.join.fingerprints),
                "executed": first.executed,
                "cache_ratio": first.join.cache_ratio,
                "byte_identical": True,
                "sha256": first.sha256,
                "artifacts": [a.name for a in first.artifacts],
            },
            indent=2,
        ),
    )


def test_bundle_written():
    """The bundle the bench refreshes is complete and self-consistent."""
    bundle_dir = ARTIFACTS / BUNDLE
    for name in (
        "REPORT.md", "table3.csv", "table3.tex",
        "table4.csv", "table4.tex", "manifest.json",
    ):
        assert (bundle_dir / name).exists(), f"missing {name}"
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    summary = manifest[0]
    assert summary["t"] == "report_summary"
    assert summary["executed"] == 0
    assert summary["cache_ratio"] == 1.0
    record = json.loads((ARTIFACTS / "bench_report.json").read_text())
    assert record["sha256"] == summary["sha256"]
