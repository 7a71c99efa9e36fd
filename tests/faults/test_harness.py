"""Harness chaos: deterministic, order-independent orchestrator faults."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.harness import (
    HARNESS_PROFILES,
    HarnessChaosPlan,
    HarnessChaosProfile,
    make_harness_plan,
)


class TestProfiles:
    def test_named_profiles_validate(self):
        for profile in HARNESS_PROFILES.values():
            profile.validate()

    def test_lookup_is_case_insensitive(self):
        assert HARNESS_PROFILES.resolve("MAYHEM") is HARNESS_PROFILES["mayhem"]
        assert HARNESS_PROFILES.resolve(" none ") is HARNESS_PROFILES["none"]

    def test_unknown_profile_names_every_choice(self):
        with pytest.raises(ConfigurationError) as excinfo:
            HARNESS_PROFILES.resolve("tornado")
        message = str(excinfo.value)
        for name in HARNESS_PROFILES:
            assert name in message

    def test_out_of_range_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            HarnessChaosProfile(name="bad", kill_rate=1.5).validate()
        with pytest.raises(ConfigurationError):
            HarnessChaosProfile(name="bad", hang_s=-1.0).validate()


class TestPlanDeterminism:
    def test_decisions_are_pure_functions_of_the_key(self):
        """The same (seed, fp, attempt) draws the same fate in any order
        — the property that makes chaos reproducible under a pool whose
        completion order the host controls."""
        fps = [f"fp-{i:02d}" for i in range(40)]
        forward = make_harness_plan("mayhem", seed=7)
        backward = make_harness_plan("mayhem", seed=7)
        a = {fp: forward.worker_action(fp, 1) for fp in fps}
        b = {fp: backward.worker_action(fp, 1) for fp in reversed(fps)}
        assert a == b
        assert forward.fired == backward.fired

    def test_seed_changes_the_schedule(self):
        fps = [f"fp-{i:02d}" for i in range(60)]
        one = make_harness_plan("worker-kill", seed=1)
        two = make_harness_plan("worker-kill", seed=2)
        fates_one = [one.would_disturb(fp, 1) for fp in fps]
        fates_two = [two.would_disturb(fp, 1) for fp in fps]
        assert fates_one != fates_two

    def test_would_disturb_matches_worker_action_without_tallying(self):
        plan = make_harness_plan("mayhem", seed=3)
        fps = [f"fp-{i:02d}" for i in range(30)]
        predicted = {fp: plan.would_disturb(fp, 1) for fp in fps}
        assert plan.fired == {"kill": 0, "hang": 0, "corrupt": 0}
        actual = {fp: plan.worker_action(fp, 1) is not None for fp in fps}
        assert predicted == actual

    def test_nothing_fires_at_or_above_the_attempt_gate(self):
        """Actions only hit first attempts, so any policy with two or
        more attempts is guaranteed to converge."""
        plan = make_harness_plan("mayhem", seed=0)
        for i in range(50):
            assert plan.worker_action(f"fp-{i}", 2) is None
            assert not plan.would_disturb(f"fp-{i}", 2)

    def test_none_profile_never_fires(self):
        plan = make_harness_plan("none", seed=0)
        for i in range(50):
            assert plan.worker_action(f"fp-{i}", 1) is None
            assert not plan.corrupts_entry(f"fp-{i}")

    def test_kill_wins_over_hang(self):
        profile = HarnessChaosProfile(
            name="always", kill_rate=1.0, hang_rate=1.0
        )
        plan = HarnessChaosPlan(profile, seed=0)
        assert plan.worker_action("fp", 1) == {"kill": True}
        assert plan.fired["kill"] == 1
        assert plan.fired["hang"] == 0


class TestCorruption:
    def test_corrupt_file_truncates_but_keeps_the_file(self, tmp_path):
        path = tmp_path / "entry.json"
        payload = json.dumps({"schema": "x", "outcome": list(range(100))})
        path.write_text(payload)
        plan = make_harness_plan("cache-corrupt", seed=0)
        plan.corrupt_file(path)
        assert path.exists()
        damaged = path.read_text()
        assert 0 < len(damaged) < len(payload)
        with pytest.raises(ValueError):
            json.loads(damaged)

    def test_corrupts_entry_is_per_fingerprint_deterministic(self):
        one = make_harness_plan("cache-corrupt", seed=5)
        two = make_harness_plan("cache-corrupt", seed=5)
        fps = [f"fp-{i:02d}" for i in range(40)]
        fates = [one.corrupts_entry(fp) for fp in fps]
        assert fates == [two.corrupts_entry(fp) for fp in fps]
        assert any(fates)  # rate 0.5 over 40 independent draws
        assert one.fired["corrupt"] == sum(fates)

    def test_corrupt_file_survives_missing_path(self, tmp_path):
        plan = make_harness_plan("cache-corrupt", seed=0)
        plan.corrupt_file(tmp_path / "nope.json")  # must not raise
