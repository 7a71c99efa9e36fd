#!/usr/bin/env python3
"""Comparing the simple policy to the unreachable optimum.

Section 3.1: "Toptimal is total user time when running under a page
placement strategy that minimizes the sum of user and NUMA-related system
time using future knowledge.  We would have liked to compare Tnuma to
Toptimal but had no way to measure the latter."

A trace-driven simulator has a way: replay every page's reference trace
through a dynamic program over the placements the protocol could hold
(global / local-writable on some processor / replicated on a set), with
the protocol's own copy costs on the transitions.  The result is a lower
bound no online policy can beat — and the paper's simple policy lands
close to it everywhere except where the gap is the application's own
legitimate sharing.

Run with:  python examples/optimal_bound.py
"""

from repro import MoveThresholdPolicy, ace_config, run_once
from repro.analysis import TraceCollector, compare_to_optimal
from repro.analysis.optimal import protocol_cost_us
from repro.machine.timing import TimingModel
from repro.workloads import small_workloads


def main() -> None:
    config = ace_config(7)
    timing = TimingModel(config.timing, config.page_size_words)

    print("placement cost vs offline optimum (scaled workloads, 7 CPUs)\n")
    print(f"{'application':>12s} {'actual(ms)':>11s} {'optimal(ms)':>12s} "
          f"{'ratio':>6s}")
    for name, workload in sorted(small_workloads().items()):
        trace = TraceCollector(keep_faults=False)
        result = run_once(
            workload,
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            observer=trace,
            check_invariants=False,
        )
        comparison = compare_to_optimal(
            trace, timing, protocol_cost_us(result.stats, timing)
        )
        print(
            f"{name:>12s} {comparison.actual_us / 1000:>11.1f} "
            f"{comparison.optimal_us / 1000:>12.1f} "
            f"{comparison.ratio:>6.2f}"
        )
    print(
        "\nratios near 1 mean the policy left almost nothing on the "
        "table;\nGfetch's larger gap is the pin-forever artifact the "
        "paper's footnote 4\nanticipates (see the reconsideration bench)."
    )


if __name__ == "__main__":
    main()
