"""Automatic layout advice: the language-processor role of Section 4.2.

"We expect that language processor level solutions to the false sharing
problem can significantly reduce the amount of intervention necessary by
the application programmer", and Section 5's first future-work item is
"what language processors can do to automate its reduction".  This module
is that tool, built on reference traces: it looks at how every writable
page was *actually* used and emits the same three kinds of advice the
authors applied by hand:

* **SEGREGATE** — a writably-shared page dominated by one processor's
  traffic: pad the dominant processor's objects onto their own page
  (the paper "forced separation by adding page-sized padding around
  objects").
* **PRIVATIZE** — a page that is read far more than written, by many
  readers: give each thread a private copy of the read-mostly data
  (the paper's Primes2 divisor-vector fix, α 0.66 → 1.00).
* **MARK_NONCACHEABLE** — a genuinely, heavily writably-shared page:
  placement cannot help, but a Section 4.3 pragma skips the pre-pin
  copying (the Primes3 sieve).

Each piece of advice carries an estimated saving: the references that
would move from global to local speed if the advice were followed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.tracing import TraceCollector
from repro.machine.config import TimingParameters
from repro.vm.address_space import AddressSpace


class AdviceKind(enum.Enum):
    """What the advisor recommends for a page."""

    SEGREGATE = "segregate"
    PRIVATIZE = "privatize"
    MARK_NONCACHEABLE = "mark-noncacheable"


@dataclass(frozen=True)
class Advice:
    """One recommendation, tied to a page and (when known) its object."""

    kind: AdviceKind
    vpage: int
    object_name: Optional[str]
    total_refs: int
    #: Estimated µs saved per run if the advice is applied.
    estimated_saving_us: float
    rationale: str


@dataclass(frozen=True)
class LayoutReport:
    """All advice for a run, ranked by estimated saving."""

    advice: List[Advice]

    def top(self, n: int = 5) -> List[Advice]:
        """The n most valuable recommendations."""
        return self.advice[:n]

    def total_estimated_saving_us(self) -> float:
        """Sum of all estimated savings."""
        return sum(a.estimated_saving_us for a in self.advice)


def advise(
    trace: TraceCollector,
    space: Optional[AddressSpace] = None,
    timing: Optional[TimingParameters] = None,
    dominance_threshold: float = 0.75,
    read_mostly_threshold: float = 0.98,
    min_refs: int = 64,
) -> LayoutReport:
    """Analyze a trace and emit layout advice.

    *space* (optional) resolves pages to object names for readable
    output.  Pages with fewer than *min_refs* references are ignored —
    the paper's manual tuning also targeted only the objects that
    mattered.
    """
    if timing is None:
        timing = TimingParameters()
    per_gain = timing.global_fetch_us - timing.local_fetch_us

    per_cpu: Dict[int, Dict[int, int]] = {}
    for event in trace.events:
        if not event.writable_data:
            continue
        counts = per_cpu.setdefault(event.vpage, {})
        counts[event.cpu] = (
            counts.get(event.cpu, 0) + event.reads + event.writes
        )

    advice: List[Advice] = []
    for vpage, summary in trace.page_summaries(writable_only=True).items():
        if not summary.writably_shared:
            continue
        if summary.total_refs < min_refs:
            continue
        counts = per_cpu.get(vpage, {})
        total = sum(counts.values())
        if total == 0:
            continue
        dominant = max(counts.values()) / total
        read_fraction = summary.reads / summary.total_refs
        name = _object_name(space, vpage)
        if dominant >= dominance_threshold:
            saving = max(counts.values()) * per_gain
            advice.append(
                Advice(
                    kind=AdviceKind.SEGREGATE,
                    vpage=vpage,
                    object_name=name,
                    total_refs=summary.total_refs,
                    estimated_saving_us=saving,
                    rationale=(
                        f"one processor makes {dominant:.0%} of the "
                        "references; pad its objects onto a private page"
                    ),
                )
            )
        elif read_fraction >= read_mostly_threshold:
            saving = summary.reads * per_gain
            advice.append(
                Advice(
                    kind=AdviceKind.PRIVATIZE,
                    vpage=vpage,
                    object_name=name,
                    total_refs=summary.total_refs,
                    estimated_saving_us=saving,
                    rationale=(
                        f"{read_fraction:.0%} of references are reads by "
                        f"{len(summary.readers)} processors; copy the data "
                        "into per-thread private vectors"
                    ),
                )
            )
        else:
            # Genuine writable sharing: no placement fixes it, but the
            # pragma avoids the pre-pin copy storm.
            advice.append(
                Advice(
                    kind=AdviceKind.MARK_NONCACHEABLE,
                    vpage=vpage,
                    object_name=name,
                    total_refs=summary.total_refs,
                    estimated_saving_us=0.0,
                    rationale=(
                        f"written by {len(summary.writers)} processors "
                        f"({1 - read_fraction:.0%} stores): place directly "
                        "in global memory to skip placement thrash"
                    ),
                )
            )
    advice.sort(key=lambda a: (-a.estimated_saving_us, a.vpage))
    return LayoutReport(advice=advice)


def _object_name(space: Optional[AddressSpace], vpage: int) -> Optional[str]:
    if space is None:
        return None
    try:
        region, _ = space.resolve(vpage)
    except Exception:  # SegmentationFault: page outside any region
        return None
    return region.vm_object.name
