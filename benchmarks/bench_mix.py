"""Ablation A14 — placement for the whole application mix.

The paper's introduction: OS-level management "address[es] the locality
needs of the entire application mix, a task that cannot be accomplished
through independent modification of individual applications."
``repro-numa mix`` runs a pair of applications *simultaneously* —
separate Mach tasks sharing the processors, local memories, and one NUMA
manager — and compares each application's attributed user time against
its standalone run.  Automatic placement keeps each application's
locality intact in the mix; placing everything in global memory hurts
the mix exactly as much as it hurts the applications alone.
"""

from __future__ import annotations

import pytest

from repro.core.policies import AllGlobalPolicy, MoveThresholdPolicy
from repro.sim.mix import run_mix
from repro.workloads.imatmult import IMatMult
from repro.workloads.primes import Primes3

from conftest import repro_numa, save_artifact

PAIRS = [
    ("IMatMult", "Primes3"),
    ("Primes1", "Primes2"),
    ("IMatMult", "Primes1"),
]


@pytest.mark.parametrize("pair", PAIRS, ids=["+".join(p) for p in PAIRS])
def test_mix_preserves_each_applications_locality(pair):
    stdout, records = repro_numa("mix", "--apps", *pair)
    save_artifact(f"mix_{'_'.join(pair)}.txt", stdout)
    assert [record["application"] for record in records] == list(pair)
    for record in records:
        # Sharing the machine must not destroy placement: attributed
        # user time within a few percent of the standalone run.
        assert record["ratio"] == pytest.approx(1.0, abs=0.06), (
            f"{record['application']} degraded {record['ratio']:.2f}x "
            f"when mixed with {pair}"
        )


def test_global_placement_hurts_the_mix_too():
    """The comparison that shows placement is doing the work (the
    command always mixes under move-threshold; this one is bench-only)."""

    def mix(policy):
        return run_mix(
            [IMatMult(n=96), Primes3(limit=200_000)],
            policy,
            n_processors=7,
            check_invariants=False,
        )

    numa = mix(MoveThresholdPolicy(threshold=4))
    all_global = mix(AllGlobalPolicy())
    assert all_global.total_user_us > numa.total_user_us * 1.15
