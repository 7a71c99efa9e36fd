#!/usr/bin/env python3
"""Remote references (Section 4.4): the extension the paper described
but never built.

"Remote references permit shared data to be placed closer to one
processor than to another ... it is not clear whether applications
actually display reference patterns lopsided enough to make remote
references profitable."

With the extension implemented, the question has a number.  A hot
writably-shared region is parameterized by how lopsided its traffic is:
one dominant thread makes a configurable share of the references.  Under
the automatic policy the region ping-pongs and is pinned in global memory
(1.5 µs fetches for everyone); with a REMOTE pragma and a HomeNodePolicy
the dominant thread pays local rates (0.65 µs) and everyone else pays the
*worse-than-global* remote rate (2.2 µs).

Run with:  python examples/remote_references.py
"""

from repro import MoveThresholdPolicy, run_once
from repro.core.policies import HomeNodePolicy
from repro.core.policies.pragma import Pragma
from repro.workloads import LopsidedSharing


def main() -> None:
    print("how lopsided must sharing be for remote references to pay?\n")
    print(f"{'dominant share':>15s} {'automatic':>10s} {'remote':>10s} "
          f"{'winner':>10s}")
    for share in (0.2, 0.3, 0.4, 0.5, 0.7, 0.9):
        automatic = run_once(
            LopsidedSharing(dominant_share=share),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        )
        remote = run_once(
            LopsidedSharing(dominant_share=share, pragma=Pragma.REMOTE),
            HomeNodePolicy(MoveThresholdPolicy(threshold=4)),
            n_processors=7,
            check_invariants=False,
        )
        auto_s = (automatic.user_time_us + automatic.system_time_us) / 1e6
        remote_s = (remote.user_time_us + remote.system_time_us) / 1e6
        winner = "remote" if remote_s < auto_s else "automatic"
        print(
            f"{share:>14.0%} {auto_s:>9.3f}s {remote_s:>9.3f}s {winner:>10s}"
        )
    print(
        "\nRemote references pay off only when one processor makes "
        "roughly a third or more\nof the traffic — supporting the paper's "
        "choice to require pragmas rather than\nguess (Section 4.4: no "
        "way to measure reference frequency without them)."
    )


if __name__ == "__main__":
    main()
