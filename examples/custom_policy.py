#!/usr/bin/env python3
"""Writing a custom NUMA policy.

The paper's manager/policy split means a policy is one decision function
plus optional event hooks (Section 2.3.1: "we could easily substitute
another policy without modifying the NUMA manager").  This example builds
two policies the paper's contemporaries studied and races them against
the paper's move-threshold policy on the sieve workload:

* ``FirstWriterPolicy`` — a page belongs to the first processor that
  writes it, forever (a crude "first touch" placement: one move allowed,
  then pin wherever it is — here modelled as pin-in-global after the
  first transfer).
* ``RandomLikePolicy``  — deterministic pseudo-random LOCAL/GLOBAL
  decisions, as a placement straw man.

Run with:  python examples/custom_policy.py
"""

from repro import MoveThresholdPolicy, NUMAPolicy, run_once
from repro.core.state import AccessKind, PageLike, PlacementDecision
from repro.workloads import Primes3


class FirstWriterPolicy(NUMAPolicy):
    """LOCAL until the page first changes owner, then GLOBAL forever."""

    name = "first-writer"

    def __init__(self) -> None:
        self._moved = set()

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if page.page_id in self._moved:
            return PlacementDecision.GLOBAL
        return PlacementDecision.LOCAL

    def note_move(self, page: PageLike) -> None:
        self._moved.add(page.page_id)

    def note_page_freed(self, page: PageLike) -> None:
        self._moved.discard(page.page_id)


class RandomLikePolicy(NUMAPolicy):
    """Deterministic hash-based LOCAL/GLOBAL coin flips (a straw man)."""

    name = "random-like"

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if (page.page_id * 2654435761) % 4 == 0:
            return PlacementDecision.GLOBAL
        return PlacementDecision.LOCAL


def main() -> None:
    workload_factory = lambda: Primes3(limit=400_000)  # noqa: E731
    print("racing placement policies on Primes3 (7 processors)\n")
    print(f"{'policy':>16s} {'user(s)':>9s} {'system(s)':>10s} "
          f"{'alpha':>6s} {'moves':>6s}")
    for policy in (
        MoveThresholdPolicy(threshold=4),
        FirstWriterPolicy(),
        RandomLikePolicy(),
    ):
        result = run_once(
            workload_factory(), policy, n_processors=7,
            check_invariants=False,
        )
        print(
            f"{policy.name:>16s} {result.user_time_s:>9.2f} "
            f"{result.system_time_s:>10.2f} "
            f"{result.measured_alpha:>6.2f} {result.stats.moves:>6d}"
        )
    print(
        "\nOn the sieve, first-writer behaves like a zero threshold — "
        "cheap here, but it loses\nbadly on producer/consumer handoffs "
        "(see benchmarks/bench_threshold_sweep.py).\nThe random policy "
        "never pins, so its pages ping-pong forever: note the system "
        "time.\nTotal cost (user + system) is what Table 4 is about, and "
        "the threshold policy wins it."
    )


if __name__ == "__main__":
    main()
