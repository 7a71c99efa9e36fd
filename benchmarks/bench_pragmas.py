"""Ablation A4 — placement pragmas (Section 4.3).

"For data that are known to be writably shared ... thrashing overhead may
be reduced by providing placement pragmas to application programs.  We
have considered pragmas that would cause a region of virtual memory to be
marked ... noncacheable and placed in global memory.  We have not yet
implemented such pragmas, but it would be easy to do so."

We did: Primes3 with its sieve and output marked NONCACHEABLE, run under
a :class:`PragmaPolicy`, skips the pre-pin page-copy storm entirely.  The
shape to show: system time collapses (the ΔS of Table 4 nearly vanishes)
while user time stays essentially the same — the pages were headed to
global memory anyway.
"""

from __future__ import annotations

import pytest

from repro.core.policies import MoveThresholdPolicy, PragmaPolicy
from repro.sim.harness import run_once
from repro.workloads.primes import Primes3

from conftest import save_artifact

LIMIT = 400_000


@pytest.fixture(scope="module")
def pair():
    """(automatic, pragma-driven) Primes3 runs."""
    automatic = run_once(
        Primes3(limit=LIMIT),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        check_invariants=False,
    )
    pragmatic = run_once(
        Primes3(limit=LIMIT, use_pragmas=True),
        PragmaPolicy(MoveThresholdPolicy(threshold=4)),
        n_processors=7,
        check_invariants=False,
    )
    return automatic, pragmatic


def test_pragmas_eliminate_placement_thrash(pair):
    automatic, pragmatic = pair
    # The copy storm disappears...
    assert pragmatic.stats.syncs < automatic.stats.syncs * 0.2
    assert pragmatic.system_time_us < automatic.system_time_us * 0.5
    # ...without costing user time (the pages end up global either way).
    assert pragmatic.user_time_us < automatic.user_time_us * 1.05
    text = (
        "Placement pragmas on Primes3 (Section 4.3)\n"
        f"  automatic: user {automatic.user_time_s:.2f}s "
        f"system {automatic.system_time_s:.2f}s "
        f"syncs {automatic.stats.syncs}\n"
        f"  pragmas  : user {pragmatic.user_time_s:.2f}s "
        f"system {pragmatic.system_time_s:.2f}s "
        f"syncs {pragmatic.stats.syncs}"
    )
    save_artifact("pragmas.txt", text)


def test_pragma_pages_never_move(pair):
    _, pragmatic = pair
    # Only un-pragma'd pages (stacks, counter) may move; the sieve and
    # output account for nearly all moves in the automatic run.
    assert pragmatic.stats.moves < 30

