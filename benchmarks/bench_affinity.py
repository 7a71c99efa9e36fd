"""Ablation A5 — processor affinity scheduling (Section 4.7).

The original Mach scheduler's single run queue moved processes between
processors "far too often"; the authors bound each process to a
processor.  The ablation runs the same workloads under both models: with
migration, a thread's private pages chase it from processor to processor
(or get pinned in global memory), destroying the locality the NUMA
manager built.
"""

from __future__ import annotations

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import run_once
from repro.threads.scheduler import GlobalQueueScheduler
from repro.workloads.fft import FFT
from repro.workloads.primes import Primes1, Primes2

from conftest import save_artifact


def _pair(workload_factory, migration_period=40):
    bound = run_once(
        workload_factory(),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        check_invariants=False,
    )
    migratory = run_once(
        workload_factory(),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        scheduler_factory=lambda n: GlobalQueueScheduler(n, migration_period),
        check_invariants=False,
    )
    return bound, migratory


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Primes1(limit=60_000),
        lambda: Primes2(limit=60_000),
        lambda: FFT(size=128),
    ],
    ids=["Primes1", "Primes2", "FFT"],
)
def test_migration_destroys_locality(factory):
    bound, migratory = _pair(factory)
    assert migratory.migrations > 0
    assert bound.migrations == 0
    # Migration moves private pages around: more ownership transfers,
    # more system time, and (for stack-heavy codes) lower alpha.
    assert migratory.stats.moves > bound.stats.moves
    assert migratory.measured_alpha < bound.measured_alpha
    total_bound = bound.user_time_us + bound.system_time_us
    total_migr = migratory.user_time_us + migratory.system_time_us
    assert total_migr > total_bound


def test_affinity_report():
    bound, migratory = _pair(lambda: Primes1(limit=60_000))
    text = (
        "Scheduler affinity ablation (Section 4.7), Primes1\n"
        f"  bound   : alpha {bound.measured_alpha:.2f} "
        f"moves {bound.stats.moves:>5d} "
        f"user {bound.user_time_s:.2f}s system {bound.system_time_s:.2f}s\n"
        f"  migrating: alpha {migratory.measured_alpha:.2f} "
        f"moves {migratory.stats.moves:>5d} "
        f"user {migratory.user_time_s:.2f}s "
        f"system {migratory.system_time_s:.2f}s "
        f"({migratory.migrations} migrations)"
    )
    save_artifact("affinity.txt", text)


def test_faster_migration_is_worse():
    """The damage scales with migration frequency."""
    moves = [
        run_once(
            Primes2(limit=40_000),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            scheduler_factory=lambda n, p=period: GlobalQueueScheduler(n, p),
            check_invariants=False,
        ).stats.moves
        for period in (200, 50, 15)
    ]
    assert moves[0] <= moves[1] <= moves[2]
