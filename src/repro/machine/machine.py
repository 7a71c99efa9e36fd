"""The assembled machine: CPUs, memories, and the timing model.

:class:`Machine` is the hardware substrate everything above it (VM layer,
NUMA manager, simulation engine) operates on.  It owns no policy — it only
knows how long things take and which frames exist where, mirroring the
split in Figure 1 of the paper between the hardware and the pmap layer
that manages it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

from repro.machine.config import MachineConfig
from repro.machine.cpu import CPU
from repro.machine.memory import PhysicalMemory
from repro.machine.pagetable import PageTableLayer
from repro.machine.timing import TimingModel
from repro.machine.topology import SocketTopology

#: A CPU's clocks (read per observed fault and per sample); ``sum`` adds
#: the same floats in the same order.
_USER_US = attrgetter("user_time_us")
_SYSTEM_US = attrgetter("system_time_us")


class Machine:
    """A simulated ACE multiprocessor workstation."""

    def __init__(self, config: MachineConfig) -> None:
        config.validate()
        self._config = config
        # Only a genuinely multi-level topology is threaded through; a
        # flat (all-singleton) one is indistinguishable from None and is
        # dropped here so every downstream hook stays on its fast path.
        topology = config.topology
        multilevel = topology is not None and topology.multilevel
        self._topology: Optional[SocketTopology] = (
            topology if multilevel else None
        )
        self._timing = TimingModel(
            config.timing, config.page_size_words, self._topology
        )
        self._memory = PhysicalMemory(config)
        self._cpus: List[CPU] = [CPU(cpu_id) for cpu_id in config.cpus]
        self._pagetables: Optional[PageTableLayer] = None
        if multilevel:
            self._pagetables = PageTableLayer(self)
            for cpu in self._cpus:
                cpu.pagetables = self._pagetables

    @property
    def config(self) -> MachineConfig:
        """The configuration this machine was built from."""
        return self._config

    @property
    def timing(self) -> TimingModel:
        """Cost model for references, copies and kernel paths."""
        return self._timing

    @property
    def memory(self) -> PhysicalMemory:
        """All physical frames."""
        return self._memory

    @property
    def cpus(self) -> List[CPU]:
        """The processor modules, indexed by CPU id."""
        return self._cpus

    def cpu(self, cpu_id: int) -> CPU:
        """Return the processor with the given id."""
        return self._cpus[cpu_id]

    @property
    def n_cpus(self) -> int:
        """Number of processors."""
        return len(self._cpus)

    def user_times_us(self) -> List[float]:
        """Each processor's user time, in CPU order."""
        return list(map(_USER_US, self._cpus))

    def total_user_time_us(self) -> float:
        """Total user time across all processors (the paper's T metric)."""
        return sum(map(_USER_US, self._cpus))

    def total_system_time_us(self) -> float:
        """Total system time across all processors (Table 4's S metric)."""
        return sum(map(_SYSTEM_US, self._cpus))

    @property
    def topology(self) -> Optional[SocketTopology]:
        """The socket tree, or ``None`` on the flat ACE."""
        return self._topology

    @property
    def pagetables(self) -> Optional[PageTableLayer]:
        """The page-table placement layer (multi-level machines only)."""
        return self._pagetables

    def topology_counters(self) -> Dict[str, object]:
        """Per-level page-table counters; empty on the flat ACE.

        Kept separate from :meth:`tlb_counters` so flat-machine
        serializations (chaos reports, telemetry) stay byte-identical.
        """
        if self._pagetables is None:
            return {}
        return self._pagetables.counters()

    def tlb_counters(self) -> Dict[str, int]:
        """Software-TLB counters summed across all processors."""
        totals: Dict[str, int] = {}
        for cpu in self._cpus:
            for key, value in cpu.tlb.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals
