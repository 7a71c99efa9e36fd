"""Primitive protocol actions: sync, flush, unmap, copy, zero-fill.

:class:`ActionExecutor` performs the operations named in the cells of
Tables 1-2 against the simulated hardware — moving page contents between
frames, dropping MMU translations — and charges their costs to the acting
(faulting) processor's *system* time, which is what Table 4 measures.

Cost model (documented per DESIGN.md §5):

* Page copies are word-by-word CPU loops (the ACE has no copy engine):
  a fetch from the source memory plus a store to the destination memory
  per 32-bit word.  Syncing another processor's local copy is charged at
  remote-fetch speed, since the kernel reads that memory across the bus.
* Dropping or changing a mapping costs ``mapping_op_us`` on the acting
  processor, or ``shootdown_us`` when another processor's MMU must be
  touched.
* Zero-filling is a store per word to the destination memory.

A machine's CPUs, memory and timing model are fixed at construction, so
the executor holds those parts (and the two fixed mapping prices) instead
of re-fetching them through the machine on every action.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.directory import DirectoryEntry
from repro.core.stats import NUMAStats
from repro.errors import ProtocolError
from repro.machine.machine import Machine
from repro.machine.memory import Frame
from repro.machine.timing import MemoryLocation


class ActionExecutor:
    """Executes protocol actions and accounts for their cost."""

    def __init__(self, machine: Machine, stats: NUMAStats) -> None:
        self._cpus = machine.cpus
        self._memory = machine.memory
        self._timing = machine.timing
        self._mapping_op_us = machine.timing.mapping_op_us
        self._shootdown_us = machine.timing.shootdown_us
        self._stats = stats

    # -- primitive actions -------------------------------------------------

    def sync(
        self,
        entry: DirectoryEntry,
        copy_cpu: int,
        acting_cpu: int,
        cost_factor: float = 1.0,
    ) -> None:
        """Copy *copy_cpu*'s local copy of the page back to global memory.

        ``cost_factor`` scales the charged copy cost; the fault-injection
        degradation path uses it for the always-succeeding word-by-word
        slow writeback (uncached, fully serialized on the bus).
        """
        local = entry.local_copies.get(copy_cpu)
        if local is None:
            raise ProtocolError(
                f"page {entry.page_id}: sync requested for cpu {copy_cpu} "
                "which holds no copy"
            )
        # Frame-aware: a sync of a same-socket neighbour's copy reads at
        # socket speed on multi-level machines (flat: identical floats).
        cost = self._timing.page_copy_us_for(
            acting_cpu, local, MemoryLocation.GLOBAL
        )
        self._cpus[acting_cpu].charge_system(cost * cost_factor)
        self._memory.copy(local, entry.global_frame)
        self._stats.syncs += 1

    def flush(
        self, entry: DirectoryEntry, cpus: Iterable[int], acting_cpu: int
    ) -> None:
        """Drop mappings and free local copies on the given processors.

        Before a local frame is freed, every *other* processor's mapping
        of that frame is shot down too — remote mappings (Section 4.4)
        may point into a neighbour's local memory, and a dangling
        translation to a freed frame would be a use-after-free.
        """
        for cpu in list(cpus):
            self.drop_mapping(entry, cpu, acting_cpu)
            local = entry.local_copies.pop(cpu, None)
            if local is not None:
                for mapper in list(entry.mappings):
                    if entry.mappings[mapper].frame == local:
                        self.drop_mapping(entry, mapper, acting_cpu)
                self._memory.free(local)
                self._stats.flushes += 1

    def unmap_all(self, entry: DirectoryEntry, acting_cpu: int) -> None:
        """Drop every virtual mapping of the page (global copy remains)."""
        for cpu in list(entry.mappings):
            self.drop_mapping(entry, cpu, acting_cpu)
            self._stats.unmaps += 1

    def drop_mapping(
        self, entry: DirectoryEntry, cpu: int, acting_cpu: int
    ) -> None:
        """Remove *cpu*'s translation for the page, if any."""
        mapping = entry.drop_mapping(cpu)
        if mapping is None:
            return
        self._cpus[cpu].remove_translation(
            mapping.vpage, acting_cpu=acting_cpu
        )
        self._cpus[acting_cpu].system_time_us += (  # validated prices
            self._mapping_op_us if acting_cpu == cpu else self._shootdown_us
        )

    def copy_to_local(
        self, entry: DirectoryEntry, cpu: int, acting_cpu: int
    ) -> Frame:
        """Materialize a local copy of the page on *cpu* from global memory.

        The caller must have ensured a free local frame exists (the NUMA
        manager checks, evicts, or falls back to a GLOBAL decision first).
        """
        if cpu in entry.local_copies:
            return entry.local_copies[cpu]
        frame = self._memory.allocate_local(cpu)
        cost = self._timing.page_copy_us_for(
            acting_cpu, MemoryLocation.GLOBAL, frame
        )
        self._cpus[acting_cpu].charge_system(cost)
        self._memory.copy(entry.global_frame, frame)
        entry.local_copies[cpu] = frame
        self._stats.copies_to_local += 1
        return frame

    def zero_fill_local(self, entry: DirectoryEntry, cpu: int) -> Frame:
        """Lazily zero-fill the page directly into *cpu*'s local memory.

        This is the paper's deferral of ``pmap_zero_page``: zeros are
        written straight into the memory the policy chose, avoiding a
        write to global memory followed by an immediate copy.
        """
        frame = self._memory.allocate_local(cpu)
        cost = self._timing.zero_fill_us(frame.location_for(cpu))
        self._cpus[cpu].charge_system(cost)
        self._memory.write_token(frame, 0)
        entry.local_copies[cpu] = frame
        self._stats.zero_fills += 1
        return frame

    def zero_fill_global(self, entry: DirectoryEntry, cpu: int) -> Frame:
        """Zero-fill the page's global frame (policy said GLOBAL)."""
        cost = self._timing.zero_fill_us(MemoryLocation.GLOBAL)
        self._cpus[cpu].charge_system(cost)
        self._memory.write_token(entry.global_frame, 0)
        self._stats.zero_fills += 1
        self._stats.global_zero_fills += 1
        return entry.global_frame
