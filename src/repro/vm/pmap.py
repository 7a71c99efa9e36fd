"""The ACE pmap layer: the paper's machine-dependent module (Figure 2).

The pmap manager "exports the pmap interface to the machine-independent
components of the Mach VM system, translating pmap operations into MMU
operations and coordinating operation of the other modules" — here, the
NUMA manager and through it the NUMA policy.  The interface carries the
paper's three NUMA extensions (Section 2.3.3):

* ``pmap_free_page`` / ``pmap_free_page_sync`` — split lazy page freeing;
* min/max protection arguments to ``pmap_enter`` — the mapping is entered
  with the *strictest* permission that resolves the fault, so writable
  pages that are merely read stay replicated read-only;
* a target-processor argument to ``pmap_enter`` — mappings are created
  only on the processor that faulted.

This layer is also where the shootdown discipline lives: every MMU
mutation issued from here goes through ``CPU.enter_translation`` /
``protect_translation`` / ``remove_translation``, which pair the
change with the owning TLB's invalidation.  Lint rule RN007 confines
raw ``mmu.*`` mutators to
``machine/`` and this file, RN010 flags any function that mutates an
MMU without a paired invalidate/flush, and the dynamic race detector
(:mod:`repro.check.races`) pairs the two event streams at runtime —
three layers asserting the same invariant: no translation changes
without its shootdown.
"""

from __future__ import annotations

import abc

from repro.core.numa_manager import FreeTag, NUMAManager
from repro.core.state import AccessKind, PageState
from repro.errors import ProtocolError
from repro.machine.memory import Frame
from repro.machine.protection import (
    _ALLOWS,
    _NORMALIZED,
    PROT_READ_WRITE,
    Protection,
)
from repro.vm.page import LogicalPage


class PmapInterface(abc.ABC):
    """The Mach pmap operations our VM layer uses.

    A pmap is "a cache of the mappings for an address space": the layer
    below may drop a mapping or reduce its permissions at almost any
    time, and the machine-independent fault path will re-enter it.
    """

    @abc.abstractmethod
    def pmap_enter(
        self,
        vpage: int,
        page: LogicalPage,
        min_prot: Protection,
        max_prot: Protection,
        cpu: int,
    ) -> Frame:
        """Map *vpage* to *page* for *cpu* and return the chosen frame."""

    @abc.abstractmethod
    def pmap_protect(self, vpage: int, prot: Protection, cpu: int) -> None:
        """Reduce the permissions of *cpu*'s mapping at *vpage*."""

    @abc.abstractmethod
    def pmap_remove(self, vpage: int, cpu: int) -> None:
        """Remove *cpu*'s mapping at *vpage*, if any."""

    @abc.abstractmethod
    def pmap_remove_all(self, page: LogicalPage, cpu: int) -> None:
        """Remove every processor's mapping of *page*."""

    @abc.abstractmethod
    def pmap_free_page(self, page: LogicalPage, cpu: int) -> FreeTag:
        """Start lazy cleanup of a freed page; returns a tag."""

    @abc.abstractmethod
    def pmap_free_page_sync(self, tag: FreeTag, cpu: int) -> None:
        """Wait for (perform) the cleanup started by ``pmap_free_page``."""


class ACEPmap(PmapInterface):
    """pmap manager for the ACE: thin coordination over the NUMA manager."""

    def __init__(self, numa: NUMAManager) -> None:
        self._numa = numa

    @property
    def numa(self) -> NUMAManager:
        """The NUMA manager this pmap drives."""
        return self._numa

    def page_created(self, page: LogicalPage) -> None:
        """Register a newly allocated logical page with the NUMA manager."""
        self._numa.page_created(page)

    def pmap_enter(
        self,
        vpage: int,
        page: LogicalPage,
        min_prot: Protection,
        max_prot: Protection,
        cpu: int,
    ) -> Frame:
        min_prot = _NORMALIZED[min_prot]
        max_prot = _NORMALIZED[max_prot]
        if not _ALLOWS[max_prot][min_prot]:
            raise ProtocolError(
                f"pmap_enter min_prot {min_prot!r} exceeds max_prot {max_prot!r}"
            )
        # Normalized, a writable protection is exactly READ_WRITE.
        kind = (
            AccessKind.WRITE if min_prot is PROT_READ_WRITE else AccessKind.READ
        )
        return self._numa.request(cpu, vpage, page, kind, max_prot)

    def pmap_protect(self, vpage: int, prot: Protection, cpu: int) -> None:
        target = self._numa.machine.cpu(cpu)
        entry = target.mmu.lookup(vpage)
        if entry is None:
            return
        prot = prot.normalized()
        if prot.allows(entry.protection) and entry.protection != prot:
            raise ProtocolError(
                "pmap_protect may only reduce permissions "
                f"({entry.protection!r} -> {prot!r})"
            )
        self._record_protection(entry.frame, vpage, prot, cpu)
        target.protect_translation(vpage, prot, acting_cpu=cpu)

    def pmap_remove(self, vpage: int, cpu: int) -> None:
        target = self._numa.machine.cpu(cpu)
        entry = target.remove_translation(vpage, acting_cpu=cpu)
        if entry is None:
            return
        self._forget_mapping(entry.frame, cpu)

    def pmap_remove_all(self, page: LogicalPage, cpu: int) -> None:
        self._numa.remove_all_mappings(page, cpu)

    def pmap_free_page(self, page: LogicalPage, cpu: int) -> FreeTag:
        return self._numa.page_freed(page, cpu)

    def pmap_free_page_sync(self, tag: FreeTag, cpu: int) -> None:
        self._numa.free_page_sync(tag, cpu)

    def pmap_zero_page(self, page: LogicalPage, cpu: int) -> None:
        """Fill a page with zeros (the classic Mach operation).

        The ACE pmap *lazily* defers zero-filling of untouched pages to
        the first fault so the fill lands in the memory the policy chose
        (Section 2.3.1); calling this on an untouched page is therefore a
        no-op.  On a resident page it zeroes the authoritative copy —
        the semantics machine-independent code expects.
        """
        entry = self._numa.directory.get(page.page_id)
        if entry.state is PageState.UNTOUCHED:
            return  # deferred: the first touch will zero-fill correctly
        machine = self._numa.machine
        frame = entry.authoritative_frame()
        machine.cpu(cpu).charge_system(
            machine.timing.zero_fill_us(frame.location_for(cpu))
        )
        machine.memory.write_token(frame, 0)

    def pmap_copy_page(
        self, source: LogicalPage, destination: LogicalPage, cpu: int
    ) -> None:
        """Copy page contents between two logical pages (copy-on-write
        resolution in real Mach).  Reads the source's authoritative copy
        and writes the destination's; the destination must not be cached
        anywhere (freshly allocated), or its replicas would go stale.
        """
        src_entry = self._numa.directory.get(source.page_id)
        dst_entry = self._numa.directory.get(destination.page_id)
        if dst_entry.local_copies:
            raise ProtocolError(
                "pmap_copy_page destination must be uncached"
            )
        machine = self._numa.machine
        if src_entry.state is PageState.UNTOUCHED:
            token = 0
        else:
            token = machine.memory.read_token(src_entry.authoritative_frame())
        # The destination lives in global memory either way, so a copy
        # whose fast block transfers keep failing cannot be re-placed —
        # it completes on the slow word-by-word path at degraded cost.
        cost_factor = 1.0
        if not self._numa.transfer_envelope(destination.page_id, cpu):
            injector = self._numa.injector
            if injector is not None:
                cost_factor = injector.retry.degraded_cost_factor
        machine.memory.write_token(dst_entry.global_frame, token)
        # The destination's deferred zero-fill is now moot; the NUMA
        # manager owns the state change (and announces it on the bus).
        self._numa.materialize_global(destination.page_id, cpu)
        machine.cpu(cpu).charge_system(
            machine.timing.page_copy_us_for(
                cpu,
                src_entry.authoritative_frame(),
                dst_entry.global_frame,
            )
            * cost_factor
        )

    # -- directory co-maintenance ------------------------------------------

    def _directory_entry_for_frame(self, frame: Frame):
        for entry in self._numa.directory.entries():
            if entry.global_frame == frame or frame in entry.local_copies.values():
                return entry
        return None

    def _record_protection(
        self, frame: Frame, vpage: int, prot: Protection, cpu: int
    ) -> None:
        entry = self._directory_entry_for_frame(frame)
        if entry is None:
            return
        if prot is Protection.NONE:
            entry.drop_mapping(cpu)
        else:
            entry.record_mapping(cpu, vpage, prot, frame)

    def _forget_mapping(self, frame: Frame, cpu: int) -> None:
        entry = self._directory_entry_for_frame(frame)
        if entry is not None:
            entry.drop_mapping(cpu)
