"""Offline optimal page placement with future knowledge (Toptimal).

Section 3.1: "Toptimal is total user time when running under a page
placement strategy that minimizes the sum of user and NUMA-related system
time using future knowledge.  We would have liked to compare Tnuma to
Toptimal but had no way to measure the latter."  A trace-driven simulator
*can* measure it: for every page we run a dynamic program over the page's
reference trace whose states are the placements the protocol could hold —
global, local-writable on some processor, or read-only replicated on a set
of processors — with transition costs equal to the protocol's page-copy
and remapping costs.  The per-page minima sum to a placement cost no
online policy can beat, which, added to the trace's compute time, bounds
Toptimal from below.

``repro-numa optimal`` uses this to validate the paper's central claim:
that the simple threshold policy is close to optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.analysis.tracing import RefEvent, TraceCollector
from repro.machine.timing import MemoryLocation, TimingModel

#: DP state encodings: global, local-writable on a cpu, replicated on set.
_GLOBAL = ("G",)
_State = Union[
    Tuple[str],  # ("G",)
    Tuple[str, int],  # ("L", cpu)
    Tuple[str, FrozenSet[int]],  # ("R", cpus)
]


@dataclass(frozen=True)
class CompressedBlock:
    """Consecutive same-CPU references to a page, merged."""

    cpu: int
    reads: int
    writes: int


def compress_events(events: List[RefEvent]) -> List[CompressedBlock]:
    """Merge consecutive blocks from the same CPU (placement-equivalent)."""
    merged: List[CompressedBlock] = []
    for event in events:
        if merged and merged[-1].cpu == event.cpu:
            last = merged[-1]
            merged[-1] = CompressedBlock(
                cpu=last.cpu,
                reads=last.reads + event.reads,
                writes=last.writes + event.writes,
            )
        else:
            merged.append(
                CompressedBlock(
                    cpu=event.cpu, reads=event.reads, writes=event.writes
                )
            )
    return merged


class _CostModel:
    """Transition and service costs matching the action executor."""

    def __init__(self, timing: TimingModel) -> None:
        self._timing = timing
        self._copy_in = timing.page_copy_us(
            MemoryLocation.GLOBAL, MemoryLocation.LOCAL
        )
        self._sync_own = timing.page_copy_us(
            MemoryLocation.LOCAL, MemoryLocation.GLOBAL
        )
        self._sync_other = timing.page_copy_us(
            MemoryLocation.REMOTE, MemoryLocation.GLOBAL
        )
        self._overhead = timing.fault_overhead_us + timing.mapping_op_us

    def service(self, local: bool, reads: int, writes: int) -> float:
        location = MemoryLocation.LOCAL if local else MemoryLocation.GLOBAL
        return self._timing.block_us(location, reads, writes)

    def transition(self, old: _State, new: _State) -> float:
        """Cost to change the page's placement from *old* to *new*."""
        if old == new:
            return 0.0
        cost = self._overhead
        old_kind = old[0]
        new_kind = new[0]
        # Step 1: make global current (sync) if leaving a dirty local copy.
        if old_kind == "L":
            cost += self._sync_other
        # Step 2: populate the new placement.
        if new_kind == "L":
            if not (old_kind == "R" and new[1] in old[1]):
                cost += self._copy_in
        elif new_kind == "R":
            new_set = new[1]
            if old_kind == "R":
                fresh = new_set - old[1]
            elif old_kind == "L" and old[1] in new_set:
                fresh = new_set - {old[1]}
            else:
                fresh = new_set
            cost += len(fresh) * self._copy_in
        return cost


def optimal_page_cost(
    events: List[RefEvent], timing: TimingModel
) -> float:
    """Minimum placement cost for one page's trace (DP over placements)."""
    blocks = compress_events(events)
    if not blocks:
        return 0.0
    model = _CostModel(timing)
    # Start in global (pages are born in/backed by global memory).
    frontier: Dict[_State, float] = {_GLOBAL: 0.0}
    for block in blocks:
        candidates = _serving_states(block, frontier)
        new_frontier: Dict[_State, float] = {}
        for serve in candidates:
            local = serve[0] != "G"
            service = model.service(local, block.reads, block.writes)
            best = min(
                cost + model.transition(state, serve)
                for state, cost in frontier.items()
            )
            total = best + service
            if total < new_frontier.get(serve, float("inf")):
                new_frontier[serve] = total
        frontier = new_frontier
    return min(frontier.values())


def _serving_states(
    block: CompressedBlock, frontier: Dict[_State, float]
) -> List[_State]:
    """Placements able to serve *block*."""
    cpu = block.cpu
    states: List[_State] = [_GLOBAL, ("L", cpu)]
    if block.writes == 0:
        # Reads can also be served by replication; consider extending any
        # replica set in the frontier with this reader, plus a fresh set.
        seen = {frozenset({cpu})}
        states.append(("R", frozenset({cpu})))
        for state in frontier:
            if state[0] == "R":
                extended = state[1] | {cpu}
                if extended not in seen:
                    seen.add(extended)
                    states.append(("R", extended))
    return states


def protocol_cost_us(stats, timing: TimingModel) -> float:
    """Placement-related system time implied by a run's action counts.

    The DP's transition costs cover page copies and per-transition
    overhead but not zero-fill (every placement pays it) or syscall
    service time, so the fair "actual" figure is reconstructed from the
    same ingredients: syncs, copies-to-local, and fault-path overheads.
    """
    sync = timing.page_copy_us(MemoryLocation.REMOTE, MemoryLocation.GLOBAL)
    copy = timing.page_copy_us(MemoryLocation.GLOBAL, MemoryLocation.LOCAL)
    per_fault = timing.fault_overhead_us + timing.mapping_op_us
    return (
        stats.syncs * sync
        + stats.copies_to_local * copy
        + stats.total_faults() * per_fault
    )


@dataclass(frozen=True)
class OptimalComparison:
    """Placement cost of a run versus the offline optimum."""

    #: Data-reference time actually paid (user, from the trace) plus the
    #: protocol's copying/remapping system time.
    actual_us: float
    #: The DP lower bound for the same reference trace.
    optimal_us: float
    #: Pages analyzed.
    n_pages: int

    @property
    def ratio(self) -> float:
        """actual / optimal; 1.0 means the policy was perfect."""
        if self.optimal_us == 0:
            return 1.0
        return self.actual_us / self.optimal_us


def compare_to_optimal(
    trace: TraceCollector,
    timing: TimingModel,
    protocol_system_us: float,
    writable_only: bool = True,
) -> OptimalComparison:
    """Compare a run's actual placement cost with the offline optimum.

    ``protocol_system_us`` is the NUMA-related system time the run paid
    (copies, remapping): :func:`protocol_cost_us` of its stats, not the
    run's total system time, which zero-fills and syscalls inflate.
    """
    actual = protocol_system_us
    optimal = 0.0
    pages = 0
    for _, events in trace.by_vpage().items():
        relevant = [e for e in events if e.writable_data or not writable_only]
        if not relevant:
            continue
        pages += 1
        for event in relevant:
            actual += timing.block_us(
                event.location, event.reads, event.writes
            )
        optimal += optimal_page_cost(relevant, timing)
    return OptimalComparison(
        actual_us=actual, optimal_us=optimal, n_pages=pages
    )
