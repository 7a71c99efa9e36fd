"""Orchestrator-resilience bench — chaos must lose nothing, change nothing.

The supervision layer (:mod:`repro.exp.supervise`) claims that a batch
survives worker kills, worker hangs, and cache-file corruption with
**zero lost specs, zero double-landed results, and a byte-identical
results document**.  This bench runs a small Tables 3–4 grid under every
named harness-chaos profile (:data:`repro.faults.harness.
HARNESS_PROFILES`) and holds it to that claim:

* every profile finishes with ``lost == []`` and nothing quarantined
  (chaos fires only on first attempts, so any policy with retry
  headroom converges);
* the canonical results document equals the clean reference run's,
  byte for byte;
* the cache holds exactly one entry per unique spec (nothing lands
  twice, nothing is left truncated);
* a journal resume after each chaos run re-executes only what the
  chaos corrupted (everything else serves from cache).

The artifact records which actions fired per profile, so a seed that
stops exercising the recovery paths is visible in review.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exp.batch import resume_batch, run_batch
from repro.exp.cache import ResultCache
from repro.exp.grid import flatten, table3_grid
from repro.exp.journal import BatchJournal, journal_path_for
from repro.exp.supervise import SupervisorPolicy
from repro.faults.harness import HARNESS_PROFILES, make_harness_plan

from conftest import ARTIFACTS, save_artifact

#: Seed chosen so every fireable profile actually fires on this grid
#: (asserted below — a silent no-op chaos run proves nothing).
SEED = 3
JOBS = 2
#: Per-spec timeout: well above a quick-grid spec (~20ms) and well
#: below the profiles' 30s hang, so hangs are detected, runs are not.
TIMEOUT_S = 1.0


def bench_grid():
    return flatten(table3_grid(apps=["ParMult", "Gfetch"], quick=True))


def chaos_policy(plan):
    return SupervisorPolicy(
        max_attempts=4,
        timeout_s=TIMEOUT_S,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        chaos=plan,
    )


@pytest.fixture(autouse=True)
def pool_cores(monkeypatch):
    """Report JOBS cores, so the pool paths run even on a starved host."""
    monkeypatch.setattr(os, "cpu_count", lambda: JOBS)


def test_every_profile_loses_nothing(tmp_path):
    specs = bench_grid()
    reference = run_batch(specs, cache=ResultCache(tmp_path / "reference"))
    report = {}

    for name in sorted(HARNESS_PROFILES):
        plan = make_harness_plan(name, seed=SEED)
        cache = ResultCache(tmp_path / f"cache-{name}")
        journal_path = journal_path_for(cache.root)
        batch = run_batch(
            specs,
            jobs=JOBS,
            cache=cache,
            policy=chaos_policy(plan),
            journal=BatchJournal(journal_path),
        )

        assert batch.lost == [], f"{name}: lost specs {batch.lost}"
        assert not batch.quarantined, (
            f"{name}: quarantined {batch.quarantined}"
        )
        assert batch.results_json() == reference.results_json(), (
            f"{name}: results diverged from the clean reference"
        )
        corrupted = plan.fired["corrupt"]
        scan = cache.scan()
        assert len(scan.entries) == batch.unique - corrupted, (
            f"{name}: {len(scan.entries)} valid cache entries for "
            f"{batch.unique} unique specs ({corrupted} corrupted by chaos)"
        )
        damaged = [s for s in scan.skipped if s.reason == "corrupt"]
        assert len(damaged) == corrupted, (
            f"{name}: cache damage beyond the chaos plan: {damaged}"
        )

        resumed = resume_batch(journal_path, jobs=1, cache=cache)
        assert resumed.lost == [] and not resumed.quarantined
        assert resumed.executed == corrupted, (
            f"{name}: resume re-executed {resumed.executed} specs, "
            f"chaos corrupted {corrupted}"
        )
        assert resumed.results_json() == reference.results_json()
        healed = cache.scan()
        assert len(healed.entries) == batch.unique, (
            f"{name}: resume left the cache incomplete"
        )

        profile = HARNESS_PROFILES[name]
        fireable = (
            profile.kill_rate > 0
            or profile.hang_rate > 0
            or profile.corrupt_rate > 0
        )
        fired_total = sum(plan.fired.values())
        assert fired_total > 0 or not fireable, (
            f"{name}: seed {SEED} fired nothing; the run proved nothing"
        )

        report[name] = {
            # Which actions fired is a pure function of seed, profile
            # and fingerprint; how often (and the retry, timeout and
            # recycle tallies) depends on what was in flight when a
            # worker died, so only the former is recorded.
            "fired": sorted(kind for kind, n in plan.fired.items() if n),
            "quarantined": len(batch.quarantined),
            "lost_specs": len(batch.lost),
            "resume_executed": resumed.executed,
            "results_match_reference": True,
        }

    artifact = {
        "t": "bench_resilience",
        "specs": len(specs),
        "unique": reference.unique,
        "jobs": JOBS,
        "seed": SEED,
        "timeout_s": TIMEOUT_S,
        "results_sha256": reference.results_sha256,
        "profiles": report,
    }
    save_artifact("bench_resilience.json", json.dumps(artifact, indent=2))


def test_serial_fallback_rescues_a_dying_pool(tmp_path):
    """With every first attempt killed and a recycle budget of one, the
    orchestrator must abandon the pool and still finish everything."""
    from repro.faults.harness import HarnessChaosPlan, HarnessChaosProfile

    specs = bench_grid()
    profile = HarnessChaosProfile(name="always-kill", kill_rate=1.0)
    policy = SupervisorPolicy(
        max_attempts=4,
        backoff_base_s=0.0,
        max_pool_recycles=1,
        chaos=HarnessChaosPlan(profile, seed=0),
    )
    from repro.exp.supervise import SupervisedRunner

    runner = SupervisedRunner(jobs=JOBS, policy=policy)
    todo = [(spec.fingerprint(), spec) for spec in specs]
    outcomes, quarantined, stats = runner.run(todo)
    assert not quarantined
    assert len(outcomes) == len({fp for fp, _ in todo})
    assert stats.serial_fallbacks == 1


def test_artifact_written():
    """The resilience bench leaves its record for EXPERIMENTS.md."""
    path = ARTIFACTS / "bench_resilience.json"
    assert path.exists()
    record = json.loads(path.read_text())
    assert record["t"] == "bench_resilience"
    for name, row in record["profiles"].items():
        assert row["lost_specs"] == 0, name
        assert row["results_match_reference"] is True, name
