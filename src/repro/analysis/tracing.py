"""Reference-trace capture (the paper's Section 5 future work).

"We have begun to make and analyze reference traces of parallel programs"
— the simulator can hand them out for free.  :class:`TraceCollector`
plugs into the engine as an observer and records every reference block
and fault; the offline analyses (optimal placement, false sharing) and
the ablation benches consume these traces.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.state import AccessKind
from repro.errors import ConfigurationError
from repro.machine.timing import MemoryLocation


@dataclass(frozen=True)
class RefEvent:
    """One block of user references to one page."""

    sequence: int
    round_index: int
    cpu: int
    vpage: int
    page_id: int
    reads: int
    writes: int
    location: MemoryLocation
    writable_data: bool


@dataclass(frozen=True)
class FaultEvent:
    """One page fault."""

    sequence: int
    round_index: int
    cpu: int
    vpage: int
    kind: AccessKind


@dataclass
class PageTraceSummary:
    """Aggregate reference behaviour of one virtual page."""

    vpage: int
    reads: int = 0
    writes: int = 0
    readers: set = field(default_factory=set)
    writers: set = field(default_factory=set)

    @property
    def writably_shared(self) -> bool:
        """The paper's definition: written by ≥1 CPU, used by >1."""
        return len(self.writers) >= 1 and len(self.readers | self.writers) > 1

    @property
    def total_refs(self) -> int:
        """All references to the page."""
        return self.reads + self.writes


class TraceCollector:
    """Engine observer that records the full reference trace."""

    def __init__(self, keep_faults: bool = True) -> None:
        self._events: List[RefEvent] = []
        self._faults: List[FaultEvent] = []
        self._keep_faults = keep_faults
        self._sequence = 0

    # -- EngineObserver interface -------------------------------------------

    def on_reference(
        self,
        round_index: int,
        cpu: int,
        vpage: int,
        page_id: int,
        reads: int,
        writes: int,
        location: MemoryLocation,
        writable_data: bool,
    ) -> None:
        """Record one reference block."""
        self._events.append(
            RefEvent(
                sequence=self._sequence,
                round_index=round_index,
                cpu=cpu,
                vpage=vpage,
                page_id=page_id,
                reads=reads,
                writes=writes,
                location=location,
                writable_data=writable_data,
            )
        )
        self._sequence += 1

    def on_fault(
        self, round_index: int, cpu: int, vpage: int, kind: AccessKind
    ) -> None:
        """Record one fault."""
        if not self._keep_faults:
            return
        self._faults.append(
            FaultEvent(
                sequence=self._sequence,
                round_index=round_index,
                cpu=cpu,
                vpage=vpage,
                kind=kind,
            )
        )
        self._sequence += 1

    # -- consumption ---------------------------------------------------------

    @property
    def events(self) -> List[RefEvent]:
        """All reference blocks, in execution order."""
        return self._events

    @property
    def faults(self) -> List[FaultEvent]:
        """All faults, in execution order."""
        return self._faults

    def by_vpage(self) -> Dict[int, List[RefEvent]]:
        """Reference blocks grouped by virtual page, order preserved."""
        grouped: Dict[int, List[RefEvent]] = {}
        for event in self._events:
            grouped.setdefault(event.vpage, []).append(event)
        return grouped

    def page_summaries(
        self, writable_only: bool = False
    ) -> Dict[int, PageTraceSummary]:
        """Aggregate per-page reference behaviour."""
        summaries: Dict[int, PageTraceSummary] = {}
        for event in self._events:
            if writable_only and not event.writable_data:
                continue
            summary = summaries.get(event.vpage)
            if summary is None:
                summary = PageTraceSummary(vpage=event.vpage)
                summaries[event.vpage] = summary
            summary.reads += event.reads
            summary.writes += event.writes
            if event.reads:
                summary.readers.add(event.cpu)
            if event.writes:
                summary.writers.add(event.cpu)
        return summaries

    # -- persistence ---------------------------------------------------------

    def save_jsonl(self, path: Union[str, pathlib.Path]) -> int:
        """Write the trace as JSON lines; returns the line count.

        Reference events carry ``"t": "ref"`` and faults ``"t": "fault"``,
        in execution order, so traces can be archived and analyzed offline
        — the Section 5 "trace-driven analyses" workflow.
        """
        path = pathlib.Path(path)
        lines = 0
        merged = sorted(
            [("ref", e) for e in self._events]
            + [("fault", f) for f in self._faults],
            key=lambda item: item[1].sequence,
        )
        with path.open("w") as handle:
            for kind, event in merged:
                if kind == "ref":
                    record = {
                        "t": "ref",
                        "seq": event.sequence,
                        "round": event.round_index,
                        "cpu": event.cpu,
                        "vpage": event.vpage,
                        "page": event.page_id,
                        "r": event.reads,
                        "w": event.writes,
                        "loc": event.location.value,
                        "wd": event.writable_data,
                    }
                else:
                    record = {
                        "t": "fault",
                        "seq": event.sequence,
                        "round": event.round_index,
                        "cpu": event.cpu,
                        "vpage": event.vpage,
                        "kind": event.kind.value,
                    }
                handle.write(json.dumps(record) + "\n")
                lines += 1
        return lines

    @classmethod
    def load_jsonl(cls, path: Union[str, pathlib.Path]) -> "TraceCollector":
        """Read a trace previously written by :meth:`save_jsonl`."""
        path = pathlib.Path(path)
        trace = cls()
        with path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("t")
                if kind == "ref":
                    trace._events.append(
                        RefEvent(
                            sequence=record["seq"],
                            round_index=record["round"],
                            cpu=record["cpu"],
                            vpage=record["vpage"],
                            page_id=record["page"],
                            reads=record["r"],
                            writes=record["w"],
                            location=MemoryLocation(record["loc"]),
                            writable_data=record["wd"],
                        )
                    )
                elif kind == "fault":
                    trace._faults.append(
                        FaultEvent(
                            sequence=record["seq"],
                            round_index=record["round"],
                            cpu=record["cpu"],
                            vpage=record["vpage"],
                            kind=AccessKind(record["kind"]),
                        )
                    )
                else:
                    raise ConfigurationError(
                        f"{path}:{line_number}: unknown trace record {kind!r}"
                    )
        trace._sequence = (
            max(
                [e.sequence for e in trace._events]
                + [f.sequence for f in trace._faults],
                default=-1,
            )
            + 1
        )
        return trace

    def local_fraction(self, writable_only: bool = True) -> Optional[float]:
        """Observed α over the trace (local refs / all refs)."""
        local = 0
        total = 0
        for event in self._events:
            if writable_only and not event.writable_data:
                continue
            n = event.reads + event.writes
            total += n
            if event.location is MemoryLocation.LOCAL:
                local += n
        if total == 0:
            return None
        return local / total
