"""Ablation A2 — Tnuma versus the offline optimum (``repro-numa optimal``).

Section 3.1: "We would have liked to compare Tnuma to Toptimal but had no
way to measure the latter."  The simulator can: the per-page dynamic
program of :mod:`repro.analysis.optimal` lower-bounds what any placement
with future knowledge could achieve on the same reference trace.  The
paper's claim — "our simple page placement strategy worked about as well
as any operating system level strategy could have" — translates to an
actual/optimal ratio close to 1 for the applications whose sharing is
placement-fixable, with the gap concentrated in exactly the workloads the
paper calls out as having legitimate (unfixable) sharing.
"""

from __future__ import annotations

from typing import Dict

import pytest

from conftest import repro_numa, save_artifact

#: Acceptable actual/optimal ratios.  The bound is generous: the DP can
#: replicate without protocol overhead, so even perfect online play shows
#: a gap where traffic is fault-heavy at small scale.
RATIO_LIMITS = {
    # ParMult is excluded: it makes almost no data references, so the DP
    # bound is a few microseconds and any ratio against it is vacuous.
    "Gfetch": 3.2,  # pin-forever vs optimal's re-replication (footnote 4!)
    "IMatMult": 1.8,
    "Primes1": 1.5,
    "Primes2": 1.9,
    "Primes3": 1.8,
    "FFT": 1.3,
    "PlyTrace": 2.0,
}


@pytest.fixture(scope="module")
def comparisons() -> Dict[str, Dict[str, object]]:
    """``optimal``'s rows by application; its stdout is A2."""
    stdout, records = repro_numa("optimal")
    save_artifact("optimal.txt", stdout)
    return {record["application"]: record for record in records}


@pytest.mark.parametrize("name", sorted(RATIO_LIMITS))
def test_policy_vs_offline_optimum(comparisons, name):
    ratio = comparisons[name]["ratio"]
    assert ratio >= 0.99, "optimal must lower-bound actual"
    assert ratio <= RATIO_LIMITS[name], f"{name}: actual/optimal {ratio:.2f}"


def test_parmult_gap_is_absolutely_tiny(comparisons):
    """ParMult's placement cost is negligible in absolute terms, so the
    ratio is meaningless; what matters is that the total gap is tiny
    compared to the run (67 simulated seconds in the paper)."""
    row = comparisons["ParMult"]
    assert row["actual_us"] - row["optimal_us"] < 50_000  # 50 ms
