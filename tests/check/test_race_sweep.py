"""Acceptance sweep: the race detector rides every chaos profile clean.

The PR's dynamic-layer acceptance criteria: with ``REPRO_SANITIZE=1``
the detector attaches alongside the protocol sanitizer, a clean tree
produces zero race reports under *every* fault profile, and for a
fixed workload/profile/seed the detector's full output is
byte-identical run to run (the engine is deterministic, so the
detector must be too).
"""

import pytest

from repro.check.races import RaceDetector
from repro.faults.chaos import run_chaos
from repro.workloads.parmult import ParMult

PROFILES = ("none", "transient", "frame-loss", "storm")


def _sweep(profile, seed=7, detector=None, **kwargs):
    return run_chaos(
        ParMult.small(),
        profile,
        seed=seed,
        n_processors=4,
        detector=detector,
        **kwargs,
    )


class TestCleanTreeSweep:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_sanitized_run_reports_no_races(self, profile, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # The sanitizer wiring attaches a raise-on-race detector: any
        # candidate race would raise a ProtocolViolation out of here.
        report = _sweep(profile)
        assert report.sanitized
        assert report.races["races_reported"] == 0
        # The detector actually watched the run, it didn't just idle.
        assert report.races["races_accesses"] > 0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_collecting_detector_finds_nothing(self, profile):
        detector = RaceDetector(raise_on_race=False)
        _sweep(profile, detector=detector, sanitize=False)
        assert detector.reports == []
        assert detector.ok


class TestDeterministicDetectorOutput:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_byte_identical_per_seed(self, profile, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        first = _sweep(profile)
        second = _sweep(profile)
        assert first.races == second.races
        assert first.to_json() == second.to_json()

    def test_detector_records_are_identical_too(self):
        outputs = []
        for _ in range(2):
            detector = RaceDetector(raise_on_race=False)
            _sweep("storm", detector=detector, sanitize=False)
            outputs.append(
                (detector.counters(), detector.as_records(),
                 detector.format())
            )
        assert outputs[0] == outputs[1]

    def test_report_json_carries_race_counters(self):
        import json

        report = _sweep("transient", detector=RaceDetector(
            raise_on_race=False
        ), sanitize=False)
        decoded = json.loads(report.to_json())
        assert decoded["races"]["races_reported"] == 0
        assert decoded["races"]["races_accesses"] > 0
