"""Apply the benchmark's bounds to two result files.

A bounded metric is ``regressed`` when B's reading is worse than A's by
more than its bound, and ``unresolved`` when either run's own samples
spread (interquartile distance over their median) wider than the bound —
then the two cannot be told apart, unless every sample of B reads better
than every sample of A.  Simulated quantities, counts and digests repeat
exactly for one seed, so they are compared for equality.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterator, List, Sequence, Tuple

#: Per-layer units whose values repeat exactly for a given seed.
EXACT_UNITS = frozenset({"count", "us", "abs", "bytes"})
#: Ratios of two exact counts.
EXACT_RATIOS = frozenset(
    {"machine.tlb_hit_ratio", "vm.faults_per_op", "exp.cache_hit_ratio"}
)

Row = Tuple[str, str, str, str]


def spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return (third - first) / middle if middle else 0.0


def worse_by(before: float, after: float, better: str) -> float:
    """How far *after* is on the wrong side of *before*, as a share of it."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def judge(
    before: Dict[str, object], after: Dict[str, object], better: str, bound: float
) -> Tuple[str, str]:
    """(status, detail) of one bounded metric on one workload.

    *before* and *after* are result-file entries: the ``value`` the run
    reported and the ``samples`` it was read from.
    """
    a, b = before["value"], after["value"]
    before, after = before["samples"], after["samples"]
    worse = worse_by(a, b, better)
    widest = max(spread(before), spread(after))
    detail = (
        f"{a:.6g} -> {b:.6g} ({worse:+.1%} worse, spread {widest:.1%}, "
        f"bound {bound:.0%})"
    )
    if widest > bound:
        if better == "lower":
            clear = max(after) < min(before)
        else:
            clear = min(after) > max(before)
        return ("ok" if clear else "unresolved"), detail
    return ("regressed" if worse > bound else "ok"), detail


def is_exact(name: str, unit: str) -> bool:
    """Whether per-layer metric *name* repeats exactly for one seed."""
    return unit in EXACT_UNITS or name in EXACT_RATIOS


def rows(
    benchmark: Dict[str, object],
    before: Dict[str, object],
    after: Dict[str, object],
) -> Iterator[Row]:
    """One (metric, workload, status, detail) row per comparison."""
    same_inputs = all(
        before.get(key) == after.get(key) for key in ("seed", "smoke")
    )
    for workload in (w["name"] for w in benchmark["workloads"]):
        a = before["workloads"].get(workload)
        b = after["workloads"].get(workload)
        if a is None or b is None:
            yield ("*", workload, "unresolved", "missing from one file")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            status, detail = judge(
                a["end_to_end"][name],
                b["end_to_end"][name],
                metric["better"],
                metric["bound"],
            )
            yield (name, workload, status, detail)
        failed = b["failed"] > 0
        yield (
            "failed",
            workload,
            "regressed" if failed else "ok",
            f"{b['failed']} of {b['attempted']} failed",
        )
        if not same_inputs:
            yield ("exact", workload, "unresolved", "seeds differ")
            continue
        for key in ("digest", "traced_digest"):
            equal = a.get(key) == b.get(key)
            yield (
                key,
                workload,
                "ok" if equal else "regressed",
                "equal" if equal else f"{a.get(key)} != {b.get(key)}",
            )
        # Equal exact metrics share one row; each unequal one gets its own.
        equal = 0
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            if not is_exact(name, metric["unit"]):
                continue
            x = a["per_layer"][name]["value"]
            y = b["per_layer"][name]["value"]
            if x == y:
                equal += 1
            else:
                yield (name, workload, "regressed", f"{x!r} != {y!r}")
        yield ("per_layer_exact", workload, "ok", f"{equal} metrics equal")


def compare(
    benchmark: Dict[str, object],
    before: Dict[str, object],
    after: Dict[str, object],
) -> Tuple[List[str], int]:
    """Printable lines plus the number of ``regressed`` rows."""
    lines: List[str] = []
    regressed = 0
    for name, workload, status, detail in rows(benchmark, before, after):
        regressed += status == "regressed"
        lines.append(f"{status:<10s} {name + '@' + workload:<44s} {detail}")
    return lines, regressed
