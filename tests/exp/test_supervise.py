"""The supervision layer: retry, backoff, quarantine, recycle, fallback."""

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.exp.batch import run_batch
from repro.exp.cache import ResultCache
from repro.exp.journal import BatchJournal
from repro.exp.spec import RunSpec
from repro.exp.supervise import (
    SupervisedRunner,
    SupervisorPolicy,
    execute_supervised,
)
from repro.faults.harness import (
    HARNESS_PROFILES,
    HarnessChaosPlan,
    HarnessChaosProfile,
    make_harness_plan,
)


@pytest.fixture
def two_cores(monkeypatch):
    """A 2-core host, so ``jobs=2`` gets a pool whatever runs the test."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def good_spec(n_processors=2):
    return RunSpec(workload="ParMult", quick=True, n_processors=n_processors)


def bad_spec():
    return RunSpec(workload="nope", quick=True)


def pair(spec):
    return (spec.fingerprint(), spec)


class TestPolicy:
    def test_defaults_are_resilient(self):
        policy = SupervisorPolicy()
        assert policy.max_attempts == 3
        assert not policy.raise_on_failure

    def test_strict_reproduces_the_legacy_contract(self):
        policy = SupervisorPolicy.strict()
        assert policy.max_attempts == 1
        assert policy.raise_on_failure
        assert policy.backoff_s("fp", 1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(backoff_base_s=-1.0)

    def test_backoff_is_capped_exponential_with_deterministic_jitter(self):
        policy = SupervisorPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.4, seed=9,
        )
        b1 = policy.backoff_s("fp", 1)
        b2 = policy.backoff_s("fp", 2)
        b9 = policy.backoff_s("fp", 9)
        assert 0.1 <= b1 <= 0.1 * 1.25
        assert 0.2 <= b2 <= 0.2 * 1.25
        assert 0.4 <= b9 <= 0.4 * 1.25  # capped
        # pure function of (seed, fp, attempt)
        assert policy.backoff_s("fp", 1) == b1
        assert SupervisorPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.4, seed=9,
        ).backoff_s("fp", 1) == b1
        # different fp or seed draws different jitter
        assert policy.backoff_s("other", 1) != b1


class TestSerialSupervision:
    def test_happy_path_matches_direct_execution(self):
        spec = good_spec()
        runner = SupervisedRunner(jobs=1, policy=SupervisorPolicy())
        outcomes, quarantined, stats = runner.run([pair(spec)])
        assert not quarantined
        assert stats.executed == 1
        direct = spec.execute()
        assert outcomes[spec.fingerprint()].to_json() == direct.to_json()

    def test_poison_spec_is_quarantined_not_fatal(self):
        good, bad = good_spec(), bad_spec()
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(bad), pair(good)])
        assert good.fingerprint() in outcomes
        assert bad.fingerprint() in quarantined
        assert "nope" in quarantined[bad.fingerprint()]
        assert stats.quarantined == 1
        assert stats.retries == 1  # attempt 1 failed, retried, gave up

    def test_strict_policy_raises_the_original_error(self):
        runner = SupervisedRunner(jobs=1, policy=SupervisorPolicy.strict())
        with pytest.raises(ConfigurationError) as excinfo:
            runner.run([pair(bad_spec())])
        assert "nope" in str(excinfo.value)

    def test_chaos_kill_in_serial_mode_retries_and_converges(self):
        spec = good_spec()
        profile = HarnessChaosProfile(name="always-kill", kill_rate=1.0)
        plan = HarnessChaosPlan(profile, seed=0)
        policy = SupervisorPolicy(
            max_attempts=3, backoff_base_s=0.0, chaos=plan
        )
        runner = SupervisedRunner(jobs=1, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(spec)])
        assert not quarantined
        assert spec.fingerprint() in outcomes
        assert stats.retries == 1  # killed once (first attempt only)
        assert plan.fired["kill"] == 1

    def test_prior_failures_carry_across_resume(self):
        """A spec that already burned its budget in a crashed run stays
        quarantined, with the error it was quarantined with — a poison
        spec must not sink every resume too.  The budget travels in the
        journal: a new segment starts from the one before it."""
        bad = bad_spec()
        journal = BatchJournal()
        journal.begin("b", [bad.fingerprint()], {}, jobs=1)
        journal.spec_event(
            "quarantined", bad.fingerprint(), attempts=2,
            error="unknown workload 'nope'",
        )
        journal.begin("b", [bad.fingerprint()], {}, jobs=1)
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy, journal=journal)
        outcomes, quarantined, stats = runner.run([pair(bad)])
        assert quarantined == {bad.fingerprint(): "unknown workload 'nope'"}
        assert stats.retries == 0  # never re-attempted
        assert journal.state.last.resumed

    def test_retry_and_quarantine_events_reach_the_bus(self, tmp_path):
        """Retries and quarantines are journal records (the bus carries
        simulated events only)."""
        journal = BatchJournal(tmp_path / "j.jsonl")
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy, journal=journal)
        runner.run([pair(bad_spec())])
        records = [
            json.loads(line)
            for line in journal.path.read_text().splitlines()
        ]
        events = [
            (r["t"], r.get("attempt", r.get("attempts")))
            for r in records if r["t"] in ("retry", "quarantined")
        ]
        assert events == [("retry", 1), ("quarantined", 2)]

    def test_failures_and_quarantine_reach_the_journal(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b", [], {}, jobs=1)
        policy = SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        runner = SupervisedRunner(jobs=1, policy=policy, journal=journal)
        bad = bad_spec()
        runner.run([pair(bad)])
        segment = BatchJournal.replay(journal.path).last
        assert segment.failures == {bad.fingerprint(): 2}
        assert segment.states[bad.fingerprint()] == "quarantined"


@pytest.mark.usefixtures("two_cores")
class TestPoolSupervision:
    """Pool paths patch ``os.cpu_count`` to 2: on a 1-core host the
    clamp would otherwise (correctly) route everything in-process."""

    def test_worker_kill_breaks_pool_and_recovers(self):
        specs = [good_spec(p) for p in (1, 2, 3, 4)]
        plan = None
        for seed in range(50):
            candidate = make_harness_plan("worker-kill", seed)
            if sum(
                candidate.would_disturb(s.fingerprint(), 1) for s in specs
            ) >= 1:
                plan = candidate
                break
        assert plan is not None
        policy = SupervisorPolicy(
            max_attempts=4, chaos=plan,
            backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        runner = SupervisedRunner(jobs=2, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(s) for s in specs])
        assert not quarantined
        assert len(outcomes) == len(specs)
        assert stats.pool_recycles >= 1
        assert stats.retries >= 1

    def test_hung_worker_times_out_and_recovers(self):
        specs = [good_spec(p) for p in (1, 2, 3)]
        profile = HarnessChaosProfile(
            name="hang-one", hang_rate=0.5, hang_s=5.0
        )
        plan = None
        for seed in range(50):
            candidate = HarnessChaosPlan(profile, seed)
            if sum(
                candidate.would_disturb(s.fingerprint(), 1) for s in specs
            ) >= 1:
                plan = candidate
                break
        assert plan is not None
        policy = SupervisorPolicy(
            max_attempts=3, chaos=plan, timeout_s=1.0,
            backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        runner = SupervisedRunner(jobs=2, policy=policy)
        outcomes, quarantined, stats = runner.run([pair(s) for s in specs])
        assert not quarantined
        assert len(outcomes) == len(specs)
        assert stats.timeouts >= 1
        assert stats.pool_recycles >= 1

    def test_jobs_clamp_to_host_cores_under_auto_serial(self):
        """Never more workers than cores; one core means in-process."""
        assert SupervisedRunner(jobs=10).jobs_effective == 2
        assert SupervisedRunner(jobs=1).jobs_effective == 1

    def test_strict_pool_failure_carries_spec_context(self):
        runner = SupervisedRunner(jobs=2, policy=SupervisorPolicy.strict())
        with pytest.raises(SimulationError) as excinfo:
            runner.run([pair(bad_spec())])
        assert "nope" in str(excinfo.value)
        assert "worker failed on spec" in str(excinfo.value)


#: Chaos seed under which every fireable profile fires on DIFF_GRID.
DIFF_SEED = 14

#: name → (jobs, always kill first attempts with a recycle budget of 1).
EXECUTORS = {
    "serial": (1, False),
    "pool": (2, False),
    "dying-pool": (2, True),
}


def diff_grid():
    return [
        RunSpec(workload=w, quick=True, n_processors=p)
        for w in ("ParMult", "Gfetch") for p in (2, 3)
    ]


@pytest.fixture(scope="module")
def serial_reference():
    return run_batch(diff_grid())


@pytest.mark.usefixtures("two_cores")
class TestExecutors:
    """Every executor the loop can run over lands the clean serial
    results under every harness-chaos profile: same results document,
    same terminal state per spec, nothing lost."""

    @pytest.mark.parametrize("profile_name", sorted(HARNESS_PROFILES))
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_lands_serial_reference(
        self, executor, profile_name, serial_reference, tmp_path
    ):
        jobs, dying = EXECUTORS[executor]
        profile = HARNESS_PROFILES[profile_name]
        if dying:
            profile = dataclasses.replace(profile, kill_rate=1.0)
        policy = SupervisorPolicy(
            max_attempts=4, timeout_s=1.0, backoff_base_s=0.01,
            backoff_cap_s=0.05, max_pool_recycles=1 if dying else 3,
            chaos=HarnessChaosPlan(profile, DIFF_SEED),
        )
        batch = run_batch(
            diff_grid(), jobs=jobs, cache=ResultCache(tmp_path),
            policy=policy,
        )
        assert batch.lost == [] and not batch.quarantined
        assert batch.results_sha256 == serial_reference.results_sha256
        assert batch.log.states == serial_reference.log.states
        for row, reference in zip(batch.rows, serial_reference.rows):
            assert row.outcome.to_json() == reference.outcome.to_json()
        if dying:
            assert batch.supervision.pool_recycles == 1
            assert batch.supervision.serial_fallbacks == 1


class TestWorkerEntry:
    def test_execute_supervised_without_action_matches_payload(self):
        spec = good_spec()
        payload = execute_supervised(spec.key(), None)
        assert payload == spec.execute().as_dict()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SimulationError):
            SupervisedRunner(jobs=0)
