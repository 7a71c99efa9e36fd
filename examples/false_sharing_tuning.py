#!/usr/bin/env python3
"""The Section 4.2 tuning story, replayed end to end.

1. Run the untuned Primes2 (divisors fetched from the writably-shared
   output vector) and watch alpha sit near the paper's 0.66.
2. Point the trace-driven false-sharing analyzer at the run — the tool
   the paper wished for ("we have begun to make and analyze reference
   traces ... to rectify this weakness").
3. Apply the paper's fix (each thread copies the divisors it needs into
   a private vector) and re-measure: alpha ~1.00, exactly the paper's
   before/after.

Run with:  python examples/false_sharing_tuning.py
"""

from repro import MoveThresholdPolicy, run_once
from repro.analysis import TraceCollector, analyze
from repro.workloads import Primes2

LIMIT = 100_000


def run_variant(private_divisors: bool):
    workload = Primes2(limit=LIMIT, private_divisors=private_divisors)
    trace = TraceCollector(keep_faults=False)
    result = run_once(
        workload,
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        observer=trace,
        check_invariants=False,
    )
    return result, trace


def main() -> None:
    print("Step 1: the untuned program (shared divisor fetches)")
    shared_result, shared_trace = run_variant(private_divisors=False)
    print(
        f"  alpha = {shared_result.measured_alpha:.2f} (paper: 0.66), "
        f"user time {shared_result.user_time_s:.2f}s"
    )

    print("\nStep 2: ask the trace where the sharing is")
    report = analyze(shared_trace, dominance_threshold=0.6)
    shared_pages = report.writably_shared_pages
    print(f"  {len(shared_pages)} writably-shared pages; busiest:")
    for page in sorted(
        shared_pages, key=lambda p: p.total_refs, reverse=True
    )[:5]:
        print(
            f"    vpage {page.vpage}: {page.total_refs:>8d} refs, "
            f"{page.n_readers} readers / {page.n_writers} writers, "
            f"dominant share {page.dominant_share:.2f}"
        )
    print(
        "  -> the output vector's pages are read by everyone on every\n"
        "     division but written only when a prime is found: the\n"
        "     divisors are read-mostly data trapped on writably-shared "
        "pages."
    )

    print("\nStep 3: privatize the divisors (the paper's fix)")
    private_result, _ = run_variant(private_divisors=True)
    print(
        f"  alpha = {private_result.measured_alpha:.2f} (paper: 1.00), "
        f"user time {private_result.user_time_s:.2f}s"
    )
    speedup = shared_result.user_time_us / private_result.user_time_us
    print(f"\n  user-time improvement: {speedup:.2f}x")


if __name__ == "__main__":
    main()
