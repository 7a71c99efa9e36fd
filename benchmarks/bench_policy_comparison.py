"""Ablation A10 — the paper's policy against its contemporaries.

Section 5: "The comparison of alternative policies for NUMA page
placement is an active topic of current research.  It is tempting to
consider ever more complex policies, but our work suggests that a simple
policy can work extremely well."

Six policies race across three reference patterns — IMatMult (read
sharing + ping-pong output), Primes3 (heavy writable sharing), and
Handoff (one productive ownership transfer).  Each extreme policy has a
catastrophic case; the paper's move-threshold policy is never worse than
~1.3x the per-workload winner, which is exactly what "simple but
effective" means.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.policies import (
    AllGlobalPolicy,
    AllLocalPolicy,
    DecayPolicy,
    MigrationOnlyPolicy,
    MoveThresholdPolicy,
    ReplicationOnlyPolicy,
)
from repro.sim.harness import run_once
from repro.workloads.handoff import Handoff
from repro.workloads.imatmult import IMatMult
from repro.workloads.primes import Primes3

from conftest import save_artifact

POLICY_FACTORIES = {
    "move-threshold(4)": lambda: MoveThresholdPolicy(threshold=4),
    "migration-only": MigrationOnlyPolicy,
    "replication-only": ReplicationOnlyPolicy,
    "decay": lambda: DecayPolicy(threshold=4, decay_us=50_000.0),
    "all-local": AllLocalPolicy,
    "all-global": AllGlobalPolicy,
}

WORKLOAD_FACTORIES = {
    "IMatMult": lambda: IMatMult(n=96),
    "Primes3": lambda: Primes3(limit=300_000),
    "Handoff": lambda: Handoff(),
}

PAPER = "move-threshold(4)"


@pytest.fixture(scope="module")
def totals() -> Dict[str, Dict[str, float]]:
    """totals[workload][policy] = user + system simulated µs."""
    totals: Dict[str, Dict[str, float]] = {}
    for workload_name, workload_factory in WORKLOAD_FACTORIES.items():
        row = totals[workload_name] = {}
        for policy_name, policy_factory in POLICY_FACTORIES.items():
            result = run_once(
                workload_factory(),
                policy_factory(),
                n_processors=7,
                check_invariants=False,
            )
            row[policy_name] = result.user_time_us + result.system_time_us
    return totals


def test_every_extreme_policy_has_a_catastrophe(totals):
    # Unbounded migration melts down on the sieve's writable sharing.
    for loser in ("migration-only", "all-local"):
        assert totals["Primes3"][loser] > 3 * totals["Primes3"][PAPER]
    # Pin-on-first-move loses the handoff.
    assert (
        totals["Handoff"]["replication-only"]
        > 1.3 * totals["Handoff"][PAPER]
    )
    # No NUMA management loses wherever replication matters.
    assert (
        totals["IMatMult"]["all-global"] > 1.2 * totals["IMatMult"][PAPER]
    )


def test_simple_policy_is_robust(totals):
    """Never catastrophic: within 1.35x of every per-workload winner."""
    lines = ["Policy comparison: total (user+system) simulated seconds"]
    header = f"  {'workload':>10s}" + "".join(
        f" {name:>18s}" for name in POLICY_FACTORIES
    )
    lines.append(header)
    for workload_name, row in totals.items():
        best = min(row.values())
        assert row[PAPER] <= best * 1.35, (
            f"{workload_name}: paper policy {row[PAPER] / best:.2f}x best"
        )
        cells = "".join(
            f" {row[name] / 1e6:>18.2f}" for name in POLICY_FACTORIES
        )
        lines.append(f"  {workload_name:>10s}{cells}")
    save_artifact("policy_comparison.txt", "\n".join(lines))
