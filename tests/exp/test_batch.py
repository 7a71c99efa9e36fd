"""run_batch + SupervisedRunner: dedup, parity, resumability, telemetry."""

import json
import os

import pytest

from repro.errors import SimulationError
from repro.exp.batch import (
    missing_fingerprints,
    require_cache_ratio,
    resume_batch,
    run_batch,
)
from repro.exp.cache import ResultCache
from repro.exp.grid import flatten, table3_grid, threshold_grid
from repro.exp.journal import BatchJournal, journal_path_for
from repro.exp.spec import RunSpec
from repro.exp.supervise import (
    WORKLOAD_WEIGHTS,
    SupervisedRunner,
    SupervisorPolicy,
    spec_weight,
)
from repro.faults.harness import make_harness_plan
from repro.obs.metrics import MetricsRegistry

#: A small two-application grid (6 unique specs, quick instances).
GRID_APPS = ("ParMult", "Gfetch")


def small_grid():
    return flatten(
        table3_grid(apps=GRID_APPS, n_processors=2, quick=True)
    )


class TestRunner:
    def test_serial_and_parallel_results_are_identical(self):
        """The headline fidelity property: fanning a grid across worker
        processes must not change a single byte of any outcome."""
        specs = small_grid()
        serial = run_batch(specs, jobs=1).outcomes
        parallel = run_batch(specs, jobs=2).outcomes
        assert len(serial) == len(parallel) == len(specs)
        for left, right in zip(serial, parallel):
            assert left.to_json() == right.to_json()

    def test_duplicates_execute_once(self):
        spec = RunSpec(workload="ParMult", quick=True, n_processors=2)
        seen = []
        batch = run_batch(
            [spec, spec, spec], progress=lambda line: seen.append(line)
        )
        outcomes = batch.outcomes
        assert len(outcomes) == 3
        assert len(seen) == 1
        assert batch.executed == 1
        assert outcomes[0].to_json() == outcomes[2].to_json()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SimulationError):
            SupervisedRunner(jobs=0)

    def test_worker_failures_carry_spec_context(self):
        bad = RunSpec(workload="nope", quick=True)
        with pytest.raises(Exception) as excinfo:
            run_batch([bad], jobs=2)
        assert "nope" in str(excinfo.value)

    def test_spec_weight_orders_heavy_workloads_first(self):
        heavy = RunSpec(workload="Primes3")
        light = RunSpec(workload="ParMult")
        assert spec_weight(heavy) == max(WORKLOAD_WEIGHTS.values())
        assert spec_weight(heavy) > spec_weight(light)
        chaotic = RunSpec(workload="ParMult", fault_profile="transient")
        assert spec_weight(chaotic) > spec_weight(light)


class TestBatch:
    def test_rows_align_with_submitted_order(self):
        specs = small_grid()
        batch = run_batch(specs)
        assert [row.spec for row in batch.rows] == specs
        assert batch.unique == len(specs)
        assert batch.executed == len(specs)
        assert batch.cache_hits == 0

    def test_cold_then_warm_cache(self, tmp_path):
        specs = small_grid()
        cache = ResultCache(tmp_path)
        cold = run_batch(specs, cache=cache)
        warm = run_batch(specs, cache=cache)
        assert cold.executed == len(specs) and cold.cache_hits == 0
        assert warm.executed == 0 and warm.cache_hits == len(specs)
        assert warm.cache_ratio == 1.0
        for a, b in zip(cold.rows, warm.rows):
            assert a.outcome.to_json() == b.outcome.to_json()
            assert b.cached

    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        """The resumability contract: whatever completed before an
        interruption is never simulated again."""
        specs = small_grid()
        cache = ResultCache(tmp_path)
        run_batch(specs[:2], cache=cache)  # the "interrupted" prefix
        resumed = run_batch(specs, cache=cache)
        assert resumed.cache_hits == 2
        assert resumed.executed == len(specs) - 2

    def test_threshold_sweep_shares_tlocal_baseline(self):
        sweeps = threshold_grid(
            ["ParMult"], [0, 4, 8], n_processors=2, quick=True
        )
        specs = flatten(sweeps)
        batch = run_batch(specs)
        # 3 Tnuma runs + exactly one Tlocal baseline.
        assert batch.unique == 4

    def test_metrics_and_events(self, tmp_path):
        """Per-spec progress and the batch summary are journal records;
        the registry counters agree with them."""
        specs = small_grid()
        registry = MetricsRegistry()
        journal = BatchJournal(tmp_path / "j.jsonl")
        run_batch(
            specs, cache=ResultCache(tmp_path / "cache"), registry=registry,
            journal=journal,
        )
        records = [
            json.loads(line)
            for line in journal.path.read_text().splitlines()
        ]
        finished = [r for r in records if r["t"] == "finished"]
        assert len(finished) == len(specs)
        assert not any(r["cached"] for r in finished)
        end = records[-1]
        assert end["t"] == "batch_end"
        assert (end["unique"], end["executed"], end["cache_hits"]) == (
            len(specs), len(specs), 0
        )
        metrics = registry.as_dict()
        assert metrics["batch_executed"] == len(specs)
        assert metrics["batch_cache_hits"] == 0
        assert metrics["batch_jobs"] == 1.0

    def test_progress_lines_mention_cache_state(self, tmp_path):
        spec = RunSpec(workload="ParMult", quick=True, n_processors=2)
        cache = ResultCache(tmp_path)
        lines = []
        run_batch([spec], cache=cache, progress=lines.append)
        run_batch([spec], cache=cache, progress=lines.append)
        assert "ran" in lines[0] and "cached" in lines[1]

    def test_parallel_batch_matches_serial(self, tmp_path):
        specs = small_grid()
        serial = run_batch(specs)
        parallel = run_batch(specs, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.outcome.to_json() == b.outcome.to_json()


class TestSupervisedBatch:
    """The fault-tolerance surface: quarantine, journal, chaos, resume."""

    def test_legacy_default_still_raises_on_failure(self):
        bad = RunSpec(workload="nope", quick=True)
        with pytest.raises(Exception) as excinfo:
            run_batch([bad])
        assert "nope" in str(excinfo.value)

    def test_resilient_policy_quarantines_instead_of_raising(self):
        good = RunSpec(workload="ParMult", quick=True, n_processors=2)
        bad = RunSpec(workload="nope", quick=True)
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        batch = run_batch([bad, good], policy=policy)
        assert batch.quarantined.keys() == {bad.fingerprint()}
        assert batch.lost == []
        rows = {row.spec.fingerprint(): row for row in batch.rows}
        assert rows[bad.fingerprint()].quarantined
        assert rows[bad.fingerprint()].error is not None
        assert not rows[good.fingerprint()].quarantined
        assert batch.executed == 1

    def test_quarantine_counters_publish(self):
        bad = RunSpec(workload="nope", quick=True)
        registry = MetricsRegistry()
        policy = SupervisorPolicy(max_attempts=3, backoff_base_s=0.0)
        run_batch([bad], policy=policy, registry=registry)
        metrics = registry.as_dict()
        assert metrics["batch_retries"] == 2
        assert metrics["batch_quarantined"] == 1
        assert metrics["batch_pool_recycles"] == 0

    def test_results_document_excludes_host_time(self, tmp_path):
        """wall_s and cache provenance legitimately differ between an
        uninterrupted run and a resumed one — the identity contract
        lives in the results document, which must omit them."""
        specs = small_grid()
        cache = ResultCache(tmp_path)
        cold = run_batch(specs, cache=cache)
        warm = run_batch(specs, cache=cache)
        assert cold.wall_s != warm.wall_s or cold.cache_hits != \
            warm.cache_hits
        assert cold.results_json() == warm.results_json()
        assert cold.results_sha256 == warm.results_sha256
        assert "wall_s" not in cold.results_json()

    def test_journal_records_the_whole_batch(self, tmp_path):
        specs = small_grid()
        cache = ResultCache(tmp_path / "cache")
        journal = BatchJournal(journal_path_for(cache.root))
        batch = run_batch(
            specs, cache=cache, journal=journal, policy=SupervisorPolicy()
        )
        segment = BatchJournal.replay(journal.path).last
        assert segment.ended
        assert segment.results_sha256 == batch.results_sha256
        assert set(segment.finished) == {s.fingerprint() for s in specs}
        assert segment.spec_keys[specs[0].fingerprint()] == specs[0].key()

    def test_keyboard_interrupt_aborts_cleanly(self, tmp_path, monkeypatch):
        """^C mid-batch: the journal ends with an aborted record, the
        cache holds no truncated entry, and a resume completes."""
        specs = small_grid()
        cache = ResultCache(tmp_path / "cache")
        journal_path = journal_path_for(cache.root)

        calls = {"n": 0}
        original = RunSpec.execute

        def interrupting(self):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt()
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_batch(
                specs, cache=cache, policy=SupervisorPolicy(),
                journal=BatchJournal(journal_path),
            )
        monkeypatch.setattr(RunSpec, "execute", original)

        segment = BatchJournal.replay(journal_path).last
        assert segment.aborted and not segment.ended
        # No truncated entries: every file in the cache scans clean.
        scan = cache.scan()
        assert scan.skipped == []
        assert len(scan.entries) == 1  # the spec that finished first

        resumed = resume_batch(journal_path, cache=cache)
        assert resumed.lost == []
        assert not resumed.quarantined
        assert resumed.cache_hits >= 1
        reference = run_batch(specs, cache=ResultCache(tmp_path / "ref"))
        assert resumed.results_json() == reference.results_json()

    def test_resume_after_hard_kill_is_byte_identical(self, tmp_path):
        """Simulated kill -9: the journal just stops (no marker), and a
        resume serves finished work from the cache and re-runs the rest,
        producing a byte-identical results document."""
        specs = small_grid()
        cache = ResultCache(tmp_path / "cache")
        journal_path = journal_path_for(cache.root)
        # Run the first half "before the crash" under the same journal
        # identity as the full batch by journaling the full spec list.
        journal = BatchJournal(journal_path)
        order = [s.fingerprint() for s in specs]
        journal.begin(
            "crashed", order, {s.fingerprint(): s.key() for s in specs},
            jobs=1,
        )
        prefix = run_batch(specs[:2], cache=cache)
        for spec in specs[:2]:
            journal.spec_event("finished", spec.fingerprint(), cached=False)
        # ... crash here, mid-write: no aborted record, no batch_end,
        # half a journal line and a half-written cache entry.
        torn = specs[2].fingerprint()
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write(f'{{"t": "finished", "fp": "{torn[:10]}')
        (cache.root / f".tmp-{torn}.json").write_text("{")

        resumed = resume_batch(journal_path, cache=cache)
        assert resumed.cache_hits == 2
        assert resumed.executed == len(specs) - 2
        assert resumed.resumed
        reference = run_batch(specs, cache=ResultCache(tmp_path / "ref"))
        assert resumed.results_json() == reference.results_json()
        assert prefix.rows[0].outcome.to_json() == \
            reference.rows[0].outcome.to_json()

    def test_broken_pool_leaves_cache_clean_and_resume_completes(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILLed worker (BrokenProcessPool) mid-batch: the cache
        scans clean (workers never write it), the journal records the
        recycle, and a follow-up resume completes the batch."""
        specs = small_grid()
        plan = None
        for seed in range(50):
            candidate = make_harness_plan("worker-kill", seed)
            if any(
                candidate.would_disturb(s.fingerprint(), 1) for s in specs
            ):
                plan = make_harness_plan("worker-kill", seed)
                break
        assert plan is not None
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool anywhere
        cache = ResultCache(tmp_path / "cache")
        journal_path = journal_path_for(cache.root)
        policy = SupervisorPolicy(
            max_attempts=4, chaos=plan,
            backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        batch = run_batch(
            specs, jobs=2, cache=cache, policy=policy,
            journal=BatchJournal(journal_path),
        )
        assert batch.lost == [] and not batch.quarantined
        assert batch.supervision.pool_recycles >= 1
        scan = cache.scan()
        assert scan.skipped == [], "no truncated or temp entries"
        assert len(scan.entries) == len(specs)

        resumed = resume_batch(journal_path, cache=cache)
        assert resumed.cache_hits == len(specs)
        assert resumed.executed == 0
        assert resumed.results_json() == batch.results_json()

    def test_cache_corruption_chaos_reads_as_miss_on_resume(self, tmp_path):
        specs = small_grid()
        plan = None
        for seed in range(50):
            candidate = make_harness_plan("cache-corrupt", seed)
            if any(candidate.corrupts_entry(s.fingerprint()) for s in specs):
                plan = make_harness_plan("cache-corrupt", seed)
                break
        assert plan is not None
        cache = ResultCache(tmp_path / "cache")
        policy = SupervisorPolicy(chaos=plan, backoff_base_s=0.0)
        first = run_batch(specs, cache=cache, policy=policy)
        assert first.lost == [] and not first.quarantined
        assert first.chaos_fired["corrupt"] >= 1
        # The corrupted entries are misses, so a re-run re-simulates
        # exactly those — and lands the same results document.
        second = run_batch(specs, cache=cache)
        assert second.executed == first.chaos_fired["corrupt"]
        assert second.results_json() == first.results_json()

    def test_require_cache_ratio_reports_missing_fingerprints(
        self, tmp_path
    ):
        specs = small_grid()
        cache = ResultCache(tmp_path)
        run_batch(specs[:1], cache=cache)
        batch = run_batch(specs, cache=cache)
        require_cache_ratio(batch, 0.1)  # satisfied: no raise
        with pytest.raises(SimulationError) as excinfo:
            require_cache_ratio(batch, 1.0)
        message = str(excinfo.value)
        missing = missing_fingerprints(batch)
        assert missing == sorted(
            s.fingerprint() for s in specs[1:]
        )
        assert f"{batch.cache_ratio:.4f}" in message
        for fp in missing:
            assert fp[:12] in message

    def test_resumed_quarantine_reproduces_the_uninterrupted_results(
        self, tmp_path
    ):
        """A resume re-quarantines a poison spec with the error it was
        first quarantined with, so the results document does not move."""
        specs = [
            RunSpec(workload="nope", quick=True),
            RunSpec(workload="ParMult", quick=True, n_processors=2),
        ]
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        journal_path = tmp_path / "j.jsonl"
        first = run_batch(
            specs, policy=policy, journal=BatchJournal(journal_path)
        )
        resumed = resume_batch(journal_path, policy=policy)
        assert resumed.quarantined == first.quarantined
        assert resumed.results_sha256 == first.results_sha256

    def test_poison_budget_survives_every_resume(self, tmp_path, monkeypatch):
        """A resume that only re-quarantines a spec still records its
        spent budget, so no later resume runs it again."""
        bad = RunSpec(workload="nope", quick=True)
        specs = [bad, RunSpec(workload="ParMult", quick=True, n_processors=2)]
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        journal_path = tmp_path / "j.jsonl"
        run_batch(specs, policy=policy, journal=BatchJournal(journal_path))

        executed = []
        original = RunSpec.execute

        def counting(self):
            executed.append(self.workload)
            return original(self)

        monkeypatch.setattr(RunSpec, "execute", counting)
        for _ in range(3):
            resumed = resume_batch(journal_path, policy=policy)
            assert executed.count("nope") == 0
            assert resumed.quarantined.keys() == {bad.fingerprint()}

    def test_lost_specs_is_empty_by_contract(self):
        batch = run_batch(small_grid(), policy=SupervisorPolicy())
        assert batch.lost == []
        assert batch.as_dict()["lost_specs"] == 0
