"""Fault profiles and the seeded, simulated-time fault schedule."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    PROFILES,
    FaultPlan,
    FaultProfile,
)


class TestProfiles:
    def test_named_profiles_exist(self):
        assert set(PROFILES) == {"none", "transient", "frame-loss", "storm"}

    def test_lookup_is_case_insensitive(self):
        assert PROFILES.resolve("TRANSIENT") is PROFILES["transient"]
        assert PROFILES.resolve("  Frame-Loss ") is PROFILES["frame-loss"]

    def test_unknown_profile_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown fault profile"):
            PROFILES.resolve("tornado")

    def test_all_shipped_profiles_validate(self):
        for profile in PROFILES.values():
            profile.validate()

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="transfer_fail_rate"):
            FaultProfile(name="bad", transfer_fail_rate=1.5).validate()

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot be negative"):
            FaultProfile(name="bad", frame_fail_interval_us=-1.0).validate()

    def test_none_profile_is_inert(self):
        plan = FaultPlan(PROFILES["none"], seed=3)
        assert not plan.transfer_fails()
        assert plan.message_delay() == 0.0
        assert not plan.frame_failure_due(1e9)
        assert not plan.pressure_due(1e9)
        assert not plan.wants_pump


class TestDeterminism:
    def test_same_seed_same_transfer_sequence(self):
        profile = PROFILES["transient"]
        a = FaultPlan(profile, seed=42)
        b = FaultPlan(profile, seed=42)
        assert [a.transfer_fails() for _ in range(200)] == [
            b.transfer_fails() for _ in range(200)
        ]

    def test_different_seeds_diverge(self):
        profile = PROFILES["storm"]
        a = FaultPlan(profile, seed=1)
        b = FaultPlan(profile, seed=2)
        assert [a.transfer_fails() for _ in range(200)] != [
            b.transfer_fails() for _ in range(200)
        ]

    def test_same_seed_same_message_delays(self):
        profile = PROFILES["storm"]
        a = FaultPlan(profile, seed=9)
        b = FaultPlan(profile, seed=9)
        assert [a.message_delay() for _ in range(200)] == [
            b.message_delay() for _ in range(200)
        ]

    def test_choose_is_deterministic(self):
        profile = PROFILES["transient"]
        a = FaultPlan(profile, seed=5)
        b = FaultPlan(profile, seed=5)
        items = list(range(10))
        assert [a.choose(items) for _ in range(50)] == [
            b.choose(items) for _ in range(50)
        ]

    def test_choose_from_nothing_is_an_error(self):
        plan = FaultPlan(PROFILES["transient"], seed=0)
        with pytest.raises(ConfigurationError):
            plan.choose([])


class TestSchedule:
    def test_frame_failures_respect_the_cap(self):
        profile = FaultProfile(
            name="t", frame_fail_interval_us=100.0, max_frame_failures=2
        )
        plan = FaultPlan(profile, seed=7)
        fired = sum(
            plan.frame_failure_due(now) for now in range(0, 100_000, 10)
        )
        assert fired == 2
        assert plan.frame_failures_fired == 2

    def test_cap_exhaustion_clears_wants_pump(self):
        profile = FaultProfile(
            name="t", frame_fail_interval_us=100.0, max_frame_failures=1
        )
        plan = FaultPlan(profile, seed=7)
        assert plan.wants_pump
        # First deadline lands in [50, 150)us, so this consumes the one
        # allowed failure; the next check hits the cap and clears it.
        assert plan.frame_failure_due(1_000.0)
        assert not plan.frame_failure_due(1e9)
        assert not plan.wants_pump

    def test_frame_failure_not_due_before_deadline(self):
        profile = FaultProfile(
            name="t", frame_fail_interval_us=1_000.0, max_frame_failures=8
        )
        plan = FaultPlan(profile, seed=7)
        # Deadlines are jittered in [0.5, 1.5) of the mean interval.
        assert not plan.frame_failure_due(400.0)

    def test_pressure_redraws_after_firing(self):
        profile = FaultProfile(
            name="t", pressure_interval_us=100.0, pressure_duration_us=50.0
        )
        plan = FaultPlan(profile, seed=7)
        assert plan.pressure_due(1_000.0)
        assert plan.wants_pump  # next spike already scheduled
