#!/usr/bin/env python3
"""Placement pragmas (Section 4.3), implemented and demonstrated.

The paper proposed letting applications mark regions "noncacheable and
placed in global memory" to skip the thrashing a writably-shared region
goes through before the policy pins it.  Primes3 is the poster child:
its sieve and output vector are *known* to be writably shared, and the
pre-pin copying is Table 4's worst overhead (24.9% of user time).

Run with:  python examples/placement_pragmas.py
"""

from repro import MoveThresholdPolicy, PragmaPolicy, run_once
from repro.workloads import Primes3


def main() -> None:
    limit = 600_000
    print("Primes3 with and without NONCACHEABLE pragmas (7 processors)\n")

    automatic = run_once(
        Primes3(limit=limit),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        check_invariants=False,
    )
    pragmatic = run_once(
        Primes3(limit=limit, use_pragmas=True),
        PragmaPolicy(MoveThresholdPolicy(threshold=4)),
        n_processors=7,
        check_invariants=False,
    )

    def show(label, result):
        print(
            f"  {label:22s} user {result.user_time_s:6.2f}s   "
            f"system {result.system_time_s:5.2f}s   "
            f"page copies {result.stats.total_page_copies():>5d}   "
            f"moves {result.stats.moves:>5d}"
        )

    show("automatic placement:", automatic)
    show("sieve+output pragma'd:", pragmatic)

    saved = automatic.system_time_s - pragmatic.system_time_s
    fraction = saved / automatic.user_time_s
    print(
        f"\n  the pragma skips the pre-pin ping-pong entirely, saving "
        f"{saved:.2f}s of system time\n  ({fraction:.1%} of the run's "
        "user time) at no cost in user time."
    )


if __name__ == "__main__":
    main()
