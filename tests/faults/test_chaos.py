"""The chaos harness: sanitized runs, determinism, recovery reports.

These are the PR's acceptance tests: a tier-1 workload runs to
completion under the ``transient`` and ``frame-loss`` profiles with the
protocol sanitizer attached (zero :class:`ProtocolViolation`s), and two
runs with the same seed produce byte-identical recovery summaries.
"""

import pytest

from repro.faults.chaos import run_chaos
from repro.workloads.parmult import ParMult


def small_chaos(profile, seed=7, **kwargs):
    return run_chaos(
        ParMult.small(), profile, seed=seed, n_processors=4, **kwargs
    )


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        first = small_chaos("transient")
        second = small_chaos("transient")
        assert first.as_dict() == second.as_dict()
        assert first.to_json() == second.to_json()

    def test_storm_profile_is_deterministic_too(self):
        first = small_chaos("storm", seed=11)
        second = small_chaos("storm", seed=11)
        assert first.to_json() == second.to_json()

    def test_different_seeds_change_the_fault_sequence(self):
        first = small_chaos("transient", seed=1)
        second = small_chaos("transient", seed=2)
        assert first.faults != second.faults


class TestSanitizedRuns:
    """REPRO_SANITIZE=1 + fault injection: recovery must stay sound."""

    @pytest.mark.parametrize("profile", ["transient", "frame-loss", "storm"])
    def test_profile_runs_clean_under_sanitizer(self, profile, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # Any ProtocolViolation a recovery provokes raises out of here.
        report = small_chaos(profile)
        assert report.sanitized
        assert report.rounds > 0

    @pytest.mark.parametrize("profile", ["transient", "frame-loss"])
    def test_sanitized_final_stats_are_reproducible(
        self, profile, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        first = small_chaos(profile)
        second = small_chaos(profile)
        assert first.numa == second.numa
        assert first.faults == second.faults
        assert first.as_dict() == second.as_dict()

    def test_harness_attaches_sanitizer_by_default(self):
        """Chaos runs sanitize even without REPRO_SANITIZE=1."""
        report = small_chaos("transient")
        assert report.sanitized
        assert report.sanitizer_checks > 0


class TestRecovery:
    def test_transient_profile_injects_and_recovers(self):
        report = small_chaos("transient")
        assert report.faults["injected_transfer_fail"] > 0
        # Every injected transfer failure was absorbed: retried to
        # success or degraded to pinned-global, never raised.
        assert (
            report.faults["retry_successes"]
            + report.faults["degradations"]
            > 0
        )
        assert report.offline_frames == 0

    def test_frame_loss_offlines_frames_and_completes(self):
        report = small_chaos("frame-loss")
        assert report.faults["injected_frame_fail"] > 0
        assert report.offline_frames == report.faults["frames_offlined"]
        assert report.numa["frames_offlined"] == report.offline_frames
        assert report.rounds > 0

    def test_none_profile_injects_nothing(self):
        report = small_chaos("none")
        injected = {
            key: value
            for key, value in report.faults.items()
            if key.startswith("injected_")
        }
        assert all(value == 0 for value in injected.values())
        assert report.degraded_pages == 0
        assert report.offline_frames == 0
        assert report.faults["injected_delay_us"] == 0.0

    def test_none_profile_matches_an_uninjected_run(self):
        """The fault machinery at rest does not perturb the protocol."""
        from repro.core.policies import MoveThresholdPolicy
        from repro.sim.harness import build_simulation

        baseline = build_simulation(
            [ParMult.small()], MoveThresholdPolicy(), n_processors=4
        )
        baseline.engine.run(baseline.threads)
        report = small_chaos("none", sanitize=False)
        assert report.numa == baseline.numa.stats.as_dict()

    def test_report_json_shape(self):
        import json

        report = small_chaos("transient")
        decoded = json.loads(report.to_json())
        assert decoded["workload"] == "ParMult"
        assert decoded["profile"] == "transient"
        assert decoded["seed"] == 7
        assert decoded["n_processors"] == 4
        assert "faults" in decoded and "numa" in decoded
        assert "tlb" in decoded


class TestTLBCounters:
    def test_report_carries_the_full_counter_set(self):
        report = small_chaos("none")
        assert set(report.tlb) == {
            "hits", "misses", "fills", "evictions", "invalidations",
            "shootdowns", "flushes",
        }
        # The single shared counter page ping-pongs between writers, so
        # fills land but almost never survive to a hit in this workload.
        assert report.tlb["fills"] > 0

    def test_frame_loss_recovery_shoots_down_tlbs(self):
        """Offlining a frame must invalidate from another CPU's context."""
        report = small_chaos("frame-loss")
        assert report.faults["injected_frame_fail"] > 0
        assert report.tlb["shootdowns"] > 0

    def test_tlb_counters_are_deterministic(self):
        assert small_chaos("storm").tlb == small_chaos("storm").tlb
