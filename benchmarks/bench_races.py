"""Ablation — the race detector observes without perturbing.

The dynamic race layer (`src/repro/check/races.py`) rides the same
observer hooks the sanitizer uses: the event bus, the spin-lock
observer list, and the TLB/MMU mutation observer slots.  Attaching it
must not change any simulated outcome — identical protocol counters and
user/system times, zero race reports on the clean tree — and the seeded
fixtures must still trip it.  What attaching it costs in *host* time is
the performance ledger's number (``check.races_cost_ratio`` on
``observed``).
"""

from __future__ import annotations

import json

from repro.check.fixtures import (
    run_missed_shootdown_fixture,
    run_unguarded_write_fixture,
)
from repro.check.races import attach_detector, detach_detector
from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import build_simulation
from repro.workloads.parmult import ParMult

from conftest import save_artifact

N_PROCESSORS = 4


def build_and_run(with_detector=False):
    sim = build_simulation(
        [ParMult()],
        MoveThresholdPolicy(),
        n_processors=N_PROCESSORS,
        sanitize=False,
    )
    detector = None
    if with_detector:
        detector = attach_detector(
            sim.numa, sim.engine.bus, raise_on_race=False
        )
    try:
        sim.engine.run(sim.threads)
    finally:
        if detector is not None:
            detach_detector(detector, sim.machine)
    return sim, detector


def test_detector_attached_changes_nothing_simulated():
    baseline_sim, _ = build_and_run()
    detector_sim, detector = build_and_run(with_detector=True)
    assert (
        detector_sim.numa.stats.as_dict()
        == baseline_sim.numa.stats.as_dict()
    )
    assert (
        detector_sim.machine.total_user_time_us()
        == baseline_sim.machine.total_user_time_us()
    )
    assert (
        detector_sim.machine.total_system_time_us()
        == baseline_sim.machine.total_system_time_us()
    )
    assert detector.reports == []
    assert detector.accesses > 0  # it really watched the run


def test_fixtures_catch_both_seeded_races():
    """The detector's wiring proof runs at benchmark scale too."""
    unguarded = run_unguarded_write_fixture()
    shootdown = run_missed_shootdown_fixture()
    assert any(
        r.kind == "unguarded-state-write" for r in unguarded.reports
    )
    assert any(
        r.kind == "missed-shootdown" for r in shootdown.reports
    )
    summary = {
        "unguarded_write": [r.as_record() for r in unguarded.reports],
        "missed_shootdown": [r.as_record() for r in shootdown.reports],
    }
    save_artifact(
        "bench_races_fixtures.json", json.dumps(summary, indent=2)
    )
