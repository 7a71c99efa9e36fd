"""The cache-backed dataset layer and report generation.

The system-of-record property under test: a warmed ``.repro-cache/``
is sufficient to regenerate every table and figure with zero
re-execution, every artifact footnoted with its contributing spec
fingerprints — and regeneration is byte-identical for an identical
cache.
"""

import pytest

from repro.analysis.cachereport import (
    CacheDataset,
    chaos_fan_section,
    derive_row,
    evaluation_from_dataset,
    footnote,
    missing_lines,
    policy_tournament_section,
    summary_section,
    table3_frame,
    table4_frame,
    threshold_versus_section,
)
from repro.analysis.repro_report import emit_tables, generate_cache_report
from repro.exp.cache import CACHE_SCHEMA, ResultCache
from repro.exp.grid import flatten, policy_tournament, table3_grid
from repro.exp.spec import RunSpec

APPS = ["ParMult", "FFT"]  # FFT also appears in Table 4
GRID = dict(n_processors=2, threshold=4, quick=True)


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    """A cache warmed with both placement triples plus a chaos fan."""
    root = tmp_path_factory.mktemp("cache")
    cache = ResultCache(root)
    for spec in flatten(table3_grid(APPS, **GRID)):
        cache.put(spec, spec.execute())
    for seed in (0, 1):
        spec = RunSpec(
            workload="ParMult",
            quick=True,
            n_processors=2,
            fault_profile="transient",
            fault_seed=seed,
            check_invariants=False,
        )
        cache.put(spec, spec.execute())
    return root


@pytest.fixture
def dataset(cache_root):
    return CacheDataset.load(cache_root)


class TestDeriveRow:
    def test_run_entry(self, dataset):
        entry = next(
            e for e in dataset.entries if e.outcome.kind == "run"
        )
        row = derive_row(entry)
        assert row["fingerprint"] == entry.fingerprint
        assert row["kind"] == "run"
        assert row["workload"] == entry.spec.workload
        assert row["elapsed_us"] == (
            entry.outcome.user_time_us + entry.outcome.system_time_us
        )
        assert row["moves"] is not None
        # Chaos-only metrics are None on plain runs, not missing.
        assert row["faults_injected"] is None
        assert row["tlb_hit_ratio"] is None

    def test_chaos_entry(self, dataset):
        entry = next(
            e for e in dataset.entries if e.outcome.kind == "chaos"
        )
        row = derive_row(entry)
        assert row["kind"] == "chaos"
        chaos = entry.outcome.chaos
        assert row["faults_injected"] == sum(
            value
            for key, value in chaos.faults.items()
            if key.startswith("injected_") and isinstance(value, int)
        )
        assert 0.0 <= row["tlb_hit_ratio"] <= 1.0
        assert row["measured_alpha"] is None

    def test_rows_share_one_schema(self, dataset):
        rows = [derive_row(entry) for entry in dataset.entries]
        keys = {tuple(sorted(row)) for row in rows}
        assert len(keys) == 1, "run and chaos rows must align columns"


class TestCacheDataset:
    def test_lookup_and_table(self, dataset):
        required = flatten(table3_grid(APPS, **GRID))
        assert all(dataset.has(spec) for spec in required)
        assert dataset.missing(required) == []
        assert dataset.get(required[0]).kind == "run"
        assert len(dataset.table()) == len(dataset) == 8

    def test_missing_preserves_input_order(self, dataset):
        absent = [
            RunSpec(workload="ParMult", quick=True, n_processors=5),
            RunSpec(workload="FFT", quick=True, n_processors=5),
        ]
        assert dataset.missing(absent + flatten(
            table3_grid(APPS, **GRID)
        )) == absent

    def test_table_is_cached(self, dataset):
        assert dataset.table() is dataset.table()


class TestEvaluationJoin:
    def test_full_cache_joins_every_app(self, dataset):
        join = evaluation_from_dataset(dataset, apps=APPS, **GRID)
        assert join.complete == APPS
        assert join.missing == []
        assert join.cache_ratio == 1.0
        assert join.required == 6
        assert len(join.fingerprints) == 6
        assert join.fingerprints == sorted(join.fingerprints)
        gammas = [row.params.gamma for row in join.evaluation.rows]
        assert all(g > 0 for g in gammas)

    def test_partial_cache_degrades_to_partial_report(self, cache_root):
        cache = ResultCache(cache_root)
        victim = table3_grid(["FFT"], **GRID)[0].tnuma
        entry_text = cache.path_for(victim).read_text()
        cache.invalidate(victim)
        try:
            join = evaluation_from_dataset(
                CacheDataset.load(cache_root), apps=APPS, **GRID
            )
            assert join.complete == ["ParMult"]
            assert join.missing == [victim]
            assert join.required == 4  # 3 served + 1 missing
            assert join.cache_ratio == pytest.approx(0.75)
        finally:
            path = cache.path_for(victim)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(entry_text)

    def test_missing_lines_are_sorted_and_labelled(self):
        specs = flatten(table3_grid(["ParMult"], **GRID))
        lines = missing_lines(specs)
        assert lines == sorted(lines)
        for line in lines:
            fingerprint, label = line.split(None, 1)
            assert len(fingerprint) == 64
            assert "ParMult" in label


class TestSections:
    def test_footnote_names_schema_and_short_fingerprints(self):
        text = footnote(["a" * 64, "b" * 64, "a" * 64])
        assert text.startswith("> derived from 2 cached spec(s)")
        assert CACHE_SCHEMA in text
        assert "a" * 12 in text and "a" * 13 not in text

    def test_summary_section_rolls_up_runs(self, dataset):
        title, body, fps = summary_section(dataset)
        assert "plain runs" in title
        assert "| workload |" in body
        assert len(fps) == 6  # the chaos entries stay out

    def test_threshold_versus_section(self, dataset):
        title, body, fps = threshold_versus_section(
            dataset, n_processors=2, quick=True
        )
        assert "gamma vs move threshold" in body
        assert "ParMult" in body and "FFT" in body
        assert fps, "the plot must name its contributing specs"

    def test_threshold_versus_without_baseline(self, tmp_path):
        title, body, fps = threshold_versus_section(
            CacheDataset.load(tmp_path), n_processors=2, quick=True
        )
        assert "no cached move-threshold runs" in body and fps == []

    def test_chaos_fan_section(self, dataset):
        title, body, fps = chaos_fan_section(dataset)
        assert "| workload | fault_profile |" in body
        assert "injected faults per profile" in body
        assert len(fps) == 2

    def test_frames_for_emitters(self, dataset):
        join = evaluation_from_dataset(dataset, apps=APPS, **GRID)
        t3 = table3_frame(join.evaluation)
        assert t3.columns[0] == "application"
        assert len(t3) == 2
        t4 = table4_frame(join.evaluation)
        assert [row["application"] for row in t4.rows] == ["FFT"]


class TestGenerateCacheReport:
    def test_regeneration_is_byte_identical(self, cache_root):
        bundles = [
            generate_cache_report(
                CacheDataset.load(cache_root), apps=APPS, **GRID
            )
            for _ in range(2)
        ]
        assert bundles[0].document == bundles[1].document
        assert bundles[0].sha256 == bundles[1].sha256

    def test_report_contents_and_provenance(self, dataset):
        bundle = generate_cache_report(dataset, apps=APPS, **GRID)
        doc = bundle.document
        assert "## Table 3 — the evaluation (from cache)" in doc
        assert "## Table 4 — NUMA-management overhead (from cache)" in doc
        assert "## Provenance" in doc
        assert f"cache schema  {CACHE_SCHEMA}" in doc
        assert "6 served from cache, 0 missing, 0 executed" in doc
        assert doc.count("> derived from") >= 5
        assert bundle.executed == 0
        assert bundle.cache_entries == 8
        names = [artifact.name for artifact in bundle.artifacts]
        assert names == [
            "table3", "table4", "alpha", "versus-threshold",
            "policy-tournament", "chaos-fans", "cache-summary",
        ]

    def test_empty_cache_renders_placeholders(self, tmp_path):
        bundle = generate_cache_report(
            CacheDataset.load(tmp_path), apps=APPS, **GRID
        )
        assert "no complete Tnuma/Tglobal/Tlocal triple" in bundle.document
        assert "### Missing specs" in bundle.document
        assert bundle.join.cache_ratio == 0.0
        summary = bundle.manifest_records()[0]
        assert summary["missing"] == 6 and summary["cached"] == 0

    def test_manifest_records(self, dataset):
        bundle = generate_cache_report(dataset, apps=APPS, **GRID)
        records = bundle.manifest_records()
        summary = records[0]
        assert summary["t"] == "report_summary"
        assert summary["executed"] == 0
        assert summary["cache_ratio"] == 1.0
        assert summary["sha256"] == bundle.sha256
        artifact_rows = [r for r in records if r["t"] == "report_artifact"]
        assert len(artifact_rows) == len(bundle.artifacts)
        # Footnotes shorten fingerprints; the manifest keeps them whole.
        for row in artifact_rows:
            assert all(len(fp) == 64 for fp in row["fingerprints"])

    def test_emit_tables(self, dataset, tmp_path):
        join = evaluation_from_dataset(dataset, apps=APPS, **GRID)
        written = emit_tables(join.evaluation, tmp_path / "tables")
        names = sorted(path.name for path in written)
        assert names == [
            "table3.csv", "table3.tex", "table4.csv", "table4.tex",
        ]
        assert "\\toprule" in (tmp_path / "tables" / "table3.tex").read_text()
        assert (tmp_path / "tables" / "table3.csv").read_text().startswith(
            "application,"
        )


class TestPolicyTournamentSection:
    POLICIES = (("move-threshold", ()), ("adaptive-threshold", ()))

    @pytest.fixture()
    def tournament_root(self, tmp_path):
        root = tmp_path / "tournament-cache"
        cache = ResultCache(root)
        for spec in flatten(
            policy_tournament(
                apps=["ParMult"], policies=self.POLICIES,
                n_processors=2, quick=True,
            )
        ):
            cache.put(spec, spec.execute())
        return root

    def test_rows_carry_deltas_against_the_paper(self, tournament_root):
        title, body, fps = policy_tournament_section(
            CacheDataset.load(tournament_root),
            apps=["ParMult"], policies=self.POLICIES,
            n_processors=2, quick=True,
        )
        assert title == "Policy tournament"
        assert "adaptive-threshold" in body
        assert "d_alpha" in body
        assert "missing" not in body
        # Entrants plus the two shared baselines contribute.
        assert len(fps) == 4

    def test_mixed_case_entrants_are_the_same_tournament(
        self, tournament_root
    ):
        """Regression: ``Move-Threshold`` used to label its entrant by
        the caller's spelling, so the Δ baseline lookup missed and every
        delta rendered ``na`` (and the spec was fingerprinted twice)."""
        dataset = CacheDataset.load(tournament_root)
        shape = dict(apps=["ParMult"], n_processors=2, quick=True)
        folded = policy_tournament_section(
            dataset, policies=self.POLICIES, **shape
        )
        mixed = policy_tournament_section(
            dataset,
            policies=(("Move-Threshold", ()), ("Adaptive-Threshold", ())),
            **shape,
        )
        assert mixed == folded
        adaptive = next(
            line for line in mixed[1].splitlines()
            if "adaptive-threshold" in line
        )
        d_beta, d_gamma = adaptive.strip("| ").split(" | ")[-2:]
        assert "na" not in (d_beta, d_gamma)

    def test_absent_baselines_list_every_absent_spec(self, tmp_path):
        """One joiner, one rule: like Table 3, a group whose baseline is
        absent reports all of its absent specs, entrants included."""
        [group] = policy_tournament(
            apps=["ParMult"], policies=self.POLICIES,
            n_processors=2, quick=True,
        )
        title, body, fps = policy_tournament_section(
            CacheDataset.load(tmp_path),
            apps=["ParMult"], policies=self.POLICIES,
            n_processors=2, quick=True,
        )
        assert body.startswith("(no cached tournament runs)")
        assert fps == []
        for spec in group.specs:
            assert spec.fingerprint() in body

    def test_missing_specs_are_listed_not_dropped(self, dataset):
        title, body, fps = policy_tournament_section(
            dataset,
            apps=["ParMult"],
            policies=(("move-threshold", ()), ("bandit", ()),),
            n_processors=2, quick=True,
        )
        # The placement-triple cache has never seen a bandit run.
        assert "bandit" in body
        assert "missing" in body
