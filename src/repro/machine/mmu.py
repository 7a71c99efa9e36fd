"""Rosetta-like memory management unit, one per processor.

Each simulated CPU owns an MMU holding virtual-page to frame translations
with protections.  Like the Rosetta-C on the ACE (inherited from the IBM
RT/PC), the hardware permits only a *single virtual address per physical
page per processor*; :meth:`MMU.enter` enforces that restriction, and it is
one of the fault sources the paper lists in Section 2.3.1.

A reference that misses, or that wants more rights than its mapping grants,
translates to ``None``.  A fault is a value, not an exception: the engine
tests for it and has the VM layer drive the NUMA protocol.

The MMU itself never walks page tables: translation storage is abstract.
On multi-level machines the *cost* of the walks a real MMU would perform
is modeled separately by :class:`~repro.machine.pagetable.PageTableLayer`,
charged per fault (the simulator's live translations double as its walk
cache) and per mapping update through the CPU invalidation funnel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import MappingError
from repro.machine.memory import Frame
from repro.machine.protection import _ALLOWS, _NORMALIZED, Protection


@dataclass(slots=True)
class MMUEntry:
    """One translation: virtual page → frame, with a protection."""

    vpage: int
    frame: Frame
    protection: Protection


class MMU:
    """Translation table for a single processor."""

    def __init__(self, cpu: int) -> None:
        self._cpu = cpu
        self._by_vpage: Dict[int, MMUEntry] = {}
        self._by_frame: Dict[Frame, int] = {}
        #: Optional mutation observer (the race detector's missed-
        #: shootdown tracking).  Duck-typed: it receives
        #: ``on_mmu_mutation(cpu, op, vpage)`` after every enter/remove/
        #: protect, whether or not the mutation went through the CPU's
        #: TLB-invalidation funnel — pairing the two streams is exactly
        #: how a bypassed funnel is caught.
        self.observer: Optional[object] = None

    @property
    def cpu(self) -> int:
        """The processor this MMU serves."""
        return self._cpu

    def enter(self, vpage: int, frame: Frame, protection: Protection) -> None:
        """Establish or replace the translation for *vpage*.

        Enforces Rosetta's one-virtual-address-per-frame restriction: if
        *frame* is already mapped at a different virtual address on this
        processor, raise :class:`MappingError` (real Mach handles this by
        removing the old mapping first, and our pmap layer does the same).
        """
        protection = _NORMALIZED[protection]
        if protection is Protection.NONE:
            raise MappingError("cannot enter a mapping with no rights")
        existing_vpage = self._by_frame.get(frame)
        if existing_vpage is not None and existing_vpage != vpage:
            raise MappingError(
                f"cannot map frame {frame} at vpage {vpage}: it is "
                f"already mapped at vpage {existing_vpage} on cpu "
                f"{self._cpu}; Rosetta allows one virtual address per "
                "physical page per processor"
            )
        old = self._by_vpage.get(vpage)
        if old is not None and old.frame != frame:
            # Replacing the translation: drop the reverse entry for the
            # frame previously visible at this address.
            del self._by_frame[old.frame]
        self._by_vpage[vpage] = MMUEntry(vpage, frame, protection)
        self._by_frame[frame] = vpage
        if self.observer is not None:
            self.observer.on_mmu_mutation(self._cpu, "enter", vpage)

    def remove(self, vpage: int) -> Optional[MMUEntry]:
        """Drop the translation for *vpage*, returning it if present."""
        entry = self._by_vpage.pop(vpage, None)
        if entry is not None:
            del self._by_frame[entry.frame]
            if self.observer is not None:
                self.observer.on_mmu_mutation(self._cpu, "remove", vpage)
        return entry

    def remove_frame(self, frame: Frame) -> Optional[MMUEntry]:
        """Drop whatever translation maps *frame*, returning it if present."""
        vpage = self._by_frame.get(frame)
        if vpage is None:
            return None
        return self.remove(vpage)

    def protect(self, vpage: int, protection: Protection) -> None:
        """Set the protection on an existing translation.

        Setting :data:`Protection.NONE` removes the mapping, matching the
        pmap convention that protecting to nothing is a remove.
        """
        protection = protection.normalized()
        if protection is Protection.NONE:
            self.remove(vpage)
            return
        entry = self._by_vpage.get(vpage)
        if entry is None:
            raise MappingError(
                f"cpu {self._cpu} has no mapping at vpage {vpage} to protect"
            )
        entry.protection = protection
        if self.observer is not None:
            self.observer.on_mmu_mutation(self._cpu, "protect", vpage)

    def lookup(self, vpage: int) -> Optional[MMUEntry]:
        """Return the translation for *vpage*, or ``None``."""
        return self._by_vpage.get(vpage)

    def vpage_of(self, frame: Frame) -> Optional[int]:
        """Return the virtual address mapping *frame*, or ``None``."""
        return self._by_frame.get(frame)

    def translate(self, vpage: int, wanted: Protection) -> Optional[MMUEntry]:
        """The live translation of *vpage* for an access needing *wanted*
        rights, or ``None`` (a fault) on a missing translation or
        insufficient protection."""
        entry = self._by_vpage.get(vpage)
        if entry is None or not _ALLOWS[entry.protection][wanted]:
            return None
        return entry

    def entries(self) -> Iterator[MMUEntry]:
        """Iterate over all live translations (order unspecified)."""
        return iter(list(self._by_vpage.values()))

    def __len__(self) -> int:
        return len(self._by_vpage)
