"""Ablation A13 — the fault-injection machinery costs nothing at rest.

The chaos harness (`src/repro/faults/`) wires a retry envelope into the
NUMA manager's transfer paths and a fault pump into the engine's
operation loop.  The PR's acceptance bar: with the ``none`` profile —
full machinery attached, nothing ever fires — a tier-1 workload must
run within 5 % of the uninjected baseline, and must not perturb the
simulation at all (identical protocol counters and simulated times).

Two measurements, one JSON artifact:

* **Perturbation** (simulated time): the ``none`` run's NUMA counters
  and user/system µs must equal the baseline's exactly.
* **Overhead** (CPU time, best-of-N, interleaved): host CPU seconds
  per run with and without the injector.  CPU time ignores scheduler
  preemption, best-of-N strips allocator noise, and interleaving the
  two measurements cancels slow host drift; the machinery's
  per-operation cost is one attribute load and a boolean check.
"""

from __future__ import annotations

import json
import time

from repro.core.policies import MoveThresholdPolicy
from repro.faults import make_injector, run_chaos
from repro.sim.harness import build_simulation
from repro.workloads.parmult import ParMult

from conftest import once, save_artifact

N_PROCESSORS = 4
TIMING_REPS = 15
OVERHEAD_BUDGET = 0.05


def build_and_run(injector=None):
    sim = build_simulation(
        [ParMult()],
        MoveThresholdPolicy(),
        n_processors=N_PROCESSORS,
        injector=injector,
    )
    sim.engine.run(sim.threads)
    return sim


def interleaved_best(reps, first, second):
    """Best-of-*reps* CPU seconds for two thunks, alternated.

    Interleaving the samples means slow host drift (CI neighbours,
    frequency scaling) hits both measurements alike instead of biasing
    whichever ran second.
    """
    best_first = best_second = float("inf")
    for _ in range(reps):
        start = time.process_time()
        first()
        best_first = min(best_first, time.process_time() - start)
        start = time.process_time()
        second()
        best_second = min(best_second, time.process_time() - start)
    return best_first, best_second


def test_none_profile_overhead(benchmark):
    def experiment():
        baseline_sim = build_and_run()
        report = run_chaos(
            ParMult(),
            "none",
            seed=0,
            n_processors=N_PROCESSORS,
            sanitize=False,
        )
        # Like-for-like walls: build + run, injector wired vs not.
        # Best-of-N strips scheduler noise; report construction is
        # excluded (it happens once per chaos run, not per op).
        baseline_wall, none_wall = interleaved_best(
            TIMING_REPS,
            build_and_run,
            lambda: build_and_run(make_injector("none", 0)),
        )
        return baseline_sim, report, baseline_wall, none_wall

    baseline_sim, report, baseline_wall, none_wall = once(
        benchmark, experiment
    )

    # Perturbation: the machinery at rest changes nothing simulated.
    baseline_stats = baseline_sim.numa.stats.as_dict()
    assert report.numa == baseline_stats
    machine = baseline_sim.machine
    assert report.user_time_us == machine.total_user_time_us()
    assert report.system_time_us == machine.total_system_time_us()
    assert report.faults["injected_delay_us"] == 0.0
    assert report.degraded_pages == 0 and report.offline_frames == 0

    # Overhead: within the 5 % acceptance budget on best-of-N walls.
    overhead = none_wall / baseline_wall - 1.0
    assert overhead <= OVERHEAD_BUDGET, (
        f"none-profile chaos run is {overhead:.1%} slower than the "
        f"uninjected baseline (budget {OVERHEAD_BUDGET:.0%})"
    )

    artifact = {
        "t": "bench_chaos",
        "workload": "ParMult",
        "n_processors": N_PROCESSORS,
        "timing_reps": TIMING_REPS,
        "baseline_cpu_s": round(baseline_wall, 6),
        "none_profile_cpu_s": round(none_wall, 6),
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": OVERHEAD_BUDGET,
        "simulated_stats_identical": report.numa == baseline_stats,
        "numa_stats": baseline_stats,
    }
    save_artifact("bench_chaos.json", json.dumps(artifact, indent=2))


def test_chaos_profiles_complete_and_report(benchmark):
    """Every shipped profile completes, sanitized, deterministically."""

    def experiment():
        reports = {}
        for profile in ("transient", "frame-loss", "storm"):
            first = run_chaos(
                ParMult.small(),
                profile,
                seed=7,
                n_processors=N_PROCESSORS,
            )
            second = run_chaos(
                ParMult.small(),
                profile,
                seed=7,
                n_processors=N_PROCESSORS,
            )
            assert first.to_json() == second.to_json()
            reports[profile] = first
        return reports

    reports = once(benchmark, experiment)
    assert reports["transient"].faults["injected_transfer_fail"] > 0
    assert reports["frame-loss"].faults["frames_offlined"] > 0
    assert reports["storm"].faults["injected_pressure_spike"] > 0
    summary = {
        profile: report.as_dict() for profile, report in reports.items()
    }
    save_artifact(
        "bench_chaos_profiles.json", json.dumps(summary, indent=2)
    )


def test_injector_reuse_continues_the_rng_stream():
    """A fresh injector per run keeps seeds meaningful (doc test)."""
    injector = make_injector("transient", seed=7)
    first = run_chaos(
        ParMult.small(),
        "transient",
        n_processors=N_PROCESSORS,
        injector=injector,
    )
    # Reusing the injector continues its RNG stream: the second run is
    # a *different* (but still deterministic) fault sequence.
    second = run_chaos(
        ParMult.small(),
        "transient",
        n_processors=N_PROCESSORS,
        injector=injector,
    )
    assert first.seed == second.seed == 7
    assert first.faults != second.faults
