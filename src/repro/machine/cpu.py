"""Per-processor state: time accounting and the MMU.

The paper's entire evaluation rests on ``time(1)``-style user and system
times summed across processors (Section 3.1).  :class:`CPU` keeps those two
clocks exactly, in microseconds, along with reference counters the analysis
layer uses to measure α directly (local vs global references to writable
data) rather than inferring it from times alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.machine.memory import Frame
from repro.machine.mmu import MMU, MMUEntry
from repro.machine.protection import Protection
from repro.machine.tlb import SoftwareTLB
from repro.machine.timing import MemoryLocation


@dataclass
class ReferenceCounters:
    """Counts of 32-bit references issued by one CPU, by destination."""

    fetches: Dict[MemoryLocation, int] = field(
        default_factory=lambda: {loc: 0 for loc in MemoryLocation}
    )
    stores: Dict[MemoryLocation, int] = field(
        default_factory=lambda: {loc: 0 for loc in MemoryLocation}
    )

    def record(self, location: MemoryLocation, reads: int, writes: int) -> None:
        """Record a block of references to *location*."""
        self.fetches[location] += reads
        self.stores[location] += writes

    def total(self) -> int:
        """All references issued."""
        return sum(self.fetches.values()) + sum(self.stores.values())

    def total_to(self, location: MemoryLocation) -> int:
        """All references to *location*."""
        return self.fetches[location] + self.stores[location]

    def merged_with(self, other: "ReferenceCounters") -> "ReferenceCounters":
        """Return counters summing self and *other*."""
        merged = ReferenceCounters()
        for loc in MemoryLocation:
            merged.fetches[loc] = self.fetches[loc] + other.fetches[loc]
            merged.stores[loc] = self.stores[loc] + other.stores[loc]
        return merged

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-friendly view keyed by :class:`MemoryLocation` value."""
        return {
            "fetches": {loc.value: self.fetches[loc] for loc in MemoryLocation},
            "stores": {loc.value: self.stores[loc] for loc in MemoryLocation},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, int]]) -> "ReferenceCounters":
        """Rebuild counters from an :meth:`as_dict` view."""
        counters = cls()
        for loc in MemoryLocation:
            counters.fetches[loc] = int(data["fetches"].get(loc.value, 0))
            counters.stores[loc] = int(data["stores"].get(loc.value, 0))
        return counters


class CPU:
    """A simulated ACE processor module."""

    def __init__(self, cpu_id: int) -> None:
        self._id = cpu_id
        #: This processor's translation hardware and its software
        #: translation cache: plain attributes (not properties) because
        #: the fault path and the engine's fast path touch them on every
        #: fault and every reference block.
        self.mmu = MMU(cpu_id)
        self.tlb = SoftwareTLB(cpu_id)
        #: Page-table placement layer on multi-level machines
        #: (:class:`~repro.machine.pagetable.PageTableLayer`); ``None``
        #: on the flat ACE, where page tables are unmodeled.  Every MMU
        #: mutation through the funnel below reports to it.
        self.pagetables = None
        #: User/system virtual time, µs; the engine adds TLB hits in place.
        self.user_time_us = 0.0
        self.system_time_us = 0.0
        #: References made in user mode to writable data, for measuring α.
        self.data_refs = ReferenceCounters()
        #: All user-mode references (data_refs plus read-only/code).
        self.all_refs = ReferenceCounters()

    @property
    def id(self) -> int:
        """Processor number, 0-based."""
        return self._id

    # -- the invalidation funnel --------------------------------------------
    #
    # Every MMU *mutation* must go through these three methods (lint rule
    # RN007 enforces it outside machine/ and vm/pmap.py) so the TLB can
    # never hold a translation the MMU no longer backs.  ``acting_cpu``
    # names the processor driving the change; when it is another CPU the
    # invalidation is a shootdown and counted as such.

    def enter_translation(
        self,
        vpage: int,
        frame: Frame,
        protection: Protection,
        acting_cpu: Optional[int] = None,
    ) -> None:
        """Install a translation, invalidating any cached entry for it."""
        self.mmu.enter(vpage, frame, protection)
        self.tlb.invalidate(vpage, acting_cpu)
        if self.pagetables is not None:
            self.pagetables.on_mutation(self._id, acting_cpu)

    def remove_translation(
        self, vpage: int, acting_cpu: Optional[int] = None
    ) -> Optional[MMUEntry]:
        """Remove a translation and shoot down its cached entry."""
        entry = self.mmu.remove(vpage)
        self.tlb.invalidate(vpage, acting_cpu)
        if self.pagetables is not None:
            self.pagetables.on_mutation(self._id, acting_cpu)
        return entry

    def protect_translation(
        self,
        vpage: int,
        protection: Protection,
        acting_cpu: Optional[int] = None,
    ) -> None:
        """Change a translation's protection, dropping the cached entry."""
        self.mmu.protect(vpage, protection)
        self.tlb.invalidate(vpage, acting_cpu)
        if self.pagetables is not None:
            self.pagetables.on_mutation(self._id, acting_cpu)

    @property
    def total_time_us(self) -> float:
        """User plus system time."""
        return self.user_time_us + self.system_time_us

    def charge_user(self, microseconds: float) -> None:
        """Add time spent in user mode."""
        if microseconds < 0:
            raise ValueError("cannot charge negative time")
        self.user_time_us += microseconds

    def charge_system(self, microseconds: float) -> None:
        """Add time spent in the kernel (faults, copies, syscalls)."""
        if microseconds < 0:
            raise ValueError("cannot charge negative time")
        self.system_time_us += microseconds
