"""The machine-independent page fault path.

This is the part of Mach VM that stays the same on every machine: resolve
the faulting address to a region, find or allocate the backing logical
page, and call ``pmap_enter`` with the minimum protection the fault needs
and the maximum the region allows.  The NUMA work all happens below the
pmap interface.
"""

from __future__ import annotations

from repro.core.state import AccessKind
from repro.errors import OutOfMemoryError, SimulationError
from repro.machine.machine import Machine
from repro.machine.protection import PROT_READ, PROT_READ_WRITE
from repro.vm.address_space import AddressSpace
from repro.vm.page_pool import PagePool
from repro.vm.pmap import ACEPmap
from repro.machine.memory import Frame


class ProtectionViolation(SimulationError):
    """A write touched a region whose max protection is read-only."""

    def __init__(self, vpage: int) -> None:
        super().__init__(vpage)
        self.vpage = vpage

    def __str__(self) -> str:
        return f"write to read-only virtual page {self.vpage}"


class FaultHandler:
    """Resolves MMU faults against one address space."""

    def __init__(
        self,
        machine: Machine,
        space: AddressSpace,
        pool: PagePool,
        pmap: ACEPmap,
        pageout_daemon=None,
        pageout_target: int = 4,
    ) -> None:
        # Fixed at the machine's construction: read once, not per fault.
        self._cpus = machine.cpus
        self._fault_overhead_us = machine.timing.fault_overhead_us
        self._pagetables = machine.pagetables
        self._space = space
        self._pool = pool
        self._pmap = pmap
        self._fault_count = 0
        #: Optional :class:`repro.vm.pageout.PageoutDaemon`: when the
        #: logical page pool is exhausted mid-fault, reclaim this many
        #: frames and retry, as Mach's pageout daemon would under
        #: memory pressure.
        self._pageout_daemon = pageout_daemon
        self._pageout_target = pageout_target

    @property
    def fault_count(self) -> int:
        """Faults resolved so far."""
        return self._fault_count

    @property
    def space(self) -> AddressSpace:
        """The address space this handler serves."""
        return self._space

    @property
    def pool(self) -> PagePool:
        """The logical page pool backing the space."""
        return self._pool

    @property
    def pmap(self) -> ACEPmap:
        """The pmap layer faults are resolved through."""
        return self._pmap

    def handle(self, cpu: int, vpage: int, kind: AccessKind) -> Frame:
        """Resolve one fault; returns the frame now mapped for *cpu*.

        Charges the fixed fault overhead (trap entry/exit plus the
        machine-independent VM path) to *cpu*'s system time, in place:
        ``TimingParameters.validate`` holds the price finite and
        non-negative.  Everything the NUMA manager then does is charged
        by the action executor.
        """
        self._fault_count += 1
        self._cpus[cpu].system_time_us += self._fault_overhead_us
        # On multi-level machines the hardware walks the page table on
        # the way into the fault; where that table lives (centralized
        # global vs. per-socket replica) prices the walk.  TLB misses
        # that re-fill from a live MMU entry are the simulator's own
        # cache and charge no walk, keeping fast/slow paths identical.
        if self._pagetables is not None:
            self._pagetables.charge_walk(cpu)
        region, offset = self._space.resolve(vpage)
        max_prot = region.max_prot
        if kind is AccessKind.WRITE and not max_prot.writable:
            raise ProtectionViolation(vpage)
        try:
            page = self._pool.resident_or_allocate(
                region.vm_object, offset, cpu
            )
        except OutOfMemoryError:
            if self._pageout_daemon is None:
                raise
            written = self._pageout_daemon.reclaim(
                target_free=self._pageout_target, cpu=cpu
            )
            if written == 0:
                raise
            page = self._pool.resident_or_allocate(
                region.vm_object, offset, cpu
            )
        min_prot = PROT_READ_WRITE if kind is AccessKind.WRITE else PROT_READ
        return self._pmap.pmap_enter(vpage, page, min_prot, max_prot, cpu)
