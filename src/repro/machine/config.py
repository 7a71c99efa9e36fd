"""Machine configuration for the simulated ACE multiprocessor workstation.

The IBM ACE (Garcia, Foster & Freitas, 1989) is a NUMA machine in which every
processor module carries 8 MB of fast local memory and all processors share
slower global memory reached over the Inter-Processor Communication (IPC)
bus.  :class:`MachineConfig` captures the parameters the paper reports in
Section 2.2, with the paper's measured values as defaults, and is consumed by
every other layer of the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.machine.topology import SocketTopology

#: 4 KB pages of 32-bit words, the Mach page size on the RT/PC family.
DEFAULT_PAGE_SIZE_WORDS = 1024


@dataclass(frozen=True)
class TimingParameters:
    """Memory reference and kernel-path costs, in microseconds.

    The four memory latencies are the paper's measured 32-bit reference
    times (Section 2.2).  Remote latencies model direct references to
    another processor's local memory, a facility the ACE has but the paper
    chose not to use (Section 4.4); they matter only to the optional
    remote-reference extension.  The kernel-path costs are not reported by
    the paper and are calibrated so that the system-time overheads of
    Table 4 have the right magnitude relative to user time.
    """

    local_fetch_us: float = 0.65
    local_store_us: float = 0.84
    global_fetch_us: float = 1.5
    global_store_us: float = 1.4
    remote_fetch_us: float = 2.2
    remote_store_us: float = 2.1
    #: Discount on bulk word loops (page copies, zero-fills) relative to
    #: isolated references: the ROMP's load/store-multiple instructions
    #: and IPC-bus burst transfers move consecutive words considerably
    #: faster than pointer-chasing code can.  1.0 disables the discount.
    bulk_transfer_factor: float = 0.4
    #: Trap entry/exit plus the machine-independent VM fault path.
    fault_overhead_us: float = 75.0
    #: Cost of a single pmap mapping change (enter/remove/protect) on a CPU.
    mapping_op_us: float = 8.0
    #: Fixed cost of a cross-processor shootdown request (TLB/PTE invalidate).
    shootdown_us: float = 20.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on non-physical timings.

        Every price must be finite: a NaN or an infinity would pass the
        clocks' negative-time guard and poison every simulated time.
        """
        for name in (
            "local_fetch_us",
            "local_store_us",
            "global_fetch_us",
            "global_store_us",
            "remote_fetch_us",
            "remote_store_us",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(f"{name} must be positive and finite")
        for name in ("fault_overhead_us", "mapping_op_us", "shootdown_us"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(
                    f"kernel-path cost {name} must be finite and non-negative"
                )
        if self.global_fetch_us < self.local_fetch_us:
            raise ConfigurationError("global fetch cannot be faster than local")
        if self.global_store_us < self.local_store_us:
            raise ConfigurationError("global store cannot be faster than local")
        # The remote tier (a direct reference into another processor's
        # local memory) crosses the bus *and* a foreign memory module:
        # it cannot be faster than plain global memory.
        if self.remote_fetch_us < self.global_fetch_us:
            raise ConfigurationError("remote fetch cannot be faster than global")
        if self.remote_store_us < self.global_store_us:
            raise ConfigurationError("remote store cannot be faster than global")
        if not 0.0 < self.bulk_transfer_factor <= 1.0:
            raise ConfigurationError(
                "bulk_transfer_factor must be within (0, 1]"
            )

    @property
    def fetch_ratio(self) -> float:
        """G/L for fetches; about 2.3 on the ACE."""
        return self.global_fetch_us / self.local_fetch_us

    @property
    def store_ratio(self) -> float:
        """G/L for stores; about 1.7 on the ACE."""
        return self.global_store_us / self.local_store_us

    def mix_ratio(self, store_fraction: float) -> float:
        """G/L for a reference mix with the given fraction of stores.

        The paper quotes "about 2 times slower for reference mixes that are
        45% stores"; ``mix_ratio(0.45)`` reproduces that number.
        """
        if not 0.0 <= store_fraction <= 1.0:
            raise ConfigurationError("store_fraction must be within [0, 1]")
        fetch_fraction = 1.0 - store_fraction
        global_cost = (
            fetch_fraction * self.global_fetch_us
            + store_fraction * self.global_store_us
        )
        local_cost = (
            fetch_fraction * self.local_fetch_us
            + store_fraction * self.local_store_us
        )
        return global_cost / local_cost


@dataclass(frozen=True)
class MachineConfig:
    """Shape and speed of a simulated ACE.

    The default configuration is the paper's "typical" large prototype:
    7 processors (Table 4 reports 7-processor runs), 8 MB of local memory
    per processor and 16 MB of global memory.  Packaging restricts a real
    ACE to nine backplane slots, at least one of which holds global memory;
    :meth:`validate` enforces that envelope unless ``enforce_backplane`` is
    cleared (useful for stress tests with more processors than the ACE
    could hold).
    """

    n_processors: int = 7
    page_size_words: int = DEFAULT_PAGE_SIZE_WORDS
    local_pages_per_cpu: int = 2048
    global_pages: int = 4096
    timing: TimingParameters = field(default_factory=TimingParameters)
    enforce_backplane: bool = True
    #: Socket tree for multi-level machines (see
    #: :mod:`repro.machine.topology`).  ``None`` is the paper's flat
    #: two-level ACE — no socket tier, no page-table modeling.
    topology: Optional[SocketTopology] = None
    #: Page-table placement on multi-level machines: ``"centralized"``
    #: (one table in global memory) or ``"replicated"`` (a Mitosis-style
    #: replica per socket).  Inert on flat machines.
    page_tables: str = "centralized"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the configuration against ACE physical constraints."""
        if self.n_processors < 1:
            raise ConfigurationError("need at least one processor")
        if self.page_size_words < 1:
            raise ConfigurationError("page size must be at least one word")
        if self.local_pages_per_cpu < 1:
            raise ConfigurationError("local memory must hold at least a page")
        if self.global_pages < 1:
            raise ConfigurationError("global memory must hold at least a page")
        self.timing.validate()
        if self.page_tables not in ("centralized", "replicated"):
            raise ConfigurationError(
                f"page_tables must be 'centralized' or 'replicated', "
                f"got {self.page_tables!r}"
            )
        if self.topology is not None:
            self.topology.validate(self.timing)
            if self.topology.n_cpus != self.n_processors:
                raise ConfigurationError(
                    f"topology {self.topology.name!r} wires "
                    f"{self.topology.n_cpus} CPUs but the machine has "
                    f"{self.n_processors} processors"
                )
        multilevel = self.topology is not None and self.topology.multilevel
        if self.page_tables == "replicated":
            if not multilevel:
                raise ConfigurationError(
                    "replicated page tables need a multi-level topology "
                    "(a socket tier to host the replicas)"
                )
            from repro.machine.pagetable import PT_PAGES_PER_REPLICA

            if self.topology.socket_pages < PT_PAGES_PER_REPLICA:
                raise ConfigurationError(
                    f"replicated page tables need at least "
                    f"{PT_PAGES_PER_REPLICA} socket_pages per socket "
                    f"(topology has {self.topology.socket_pages})"
                )
        if self.enforce_backplane and self.n_processors > 8:
            raise ConfigurationError(
                "an ACE backplane has nine slots and one must hold global "
                "memory, so at most 8 processors are possible; pass "
                "enforce_backplane=False to exceed the envelope"
            )

    @property
    def cpus(self) -> range:
        """Valid processor identifiers, ``0 .. n_processors-1``."""
        return range(self.n_processors)

    @property
    def page_size_bytes(self) -> int:
        """Page size in bytes (32-bit words)."""
        return self.page_size_words * 4

    @property
    def local_bytes_per_cpu(self) -> int:
        """Local memory per processor, in bytes."""
        return self.local_pages_per_cpu * self.page_size_bytes

    @property
    def global_bytes(self) -> int:
        """Global memory size, in bytes."""
        return self.global_pages * self.page_size_bytes

    def scaled(self, **overrides: object) -> "MachineConfig":
        """Return a copy with the given fields replaced.

        Convenience for building variant machines in sweeps, e.g.
        ``config.scaled(n_processors=1)`` for the Tlocal baseline.
        """
        from dataclasses import replace

        return replace(self, **overrides)  # type: ignore[arg-type]


def ace_config(n_processors: int = 7, **overrides: object) -> MachineConfig:
    """Build an ACE-like machine with the paper's measured timings.

    This is the configuration every experiment in the paper ran on, give
    or take the processor count; Table 4's runs used 7 processors.
    """
    base = MachineConfig(n_processors=n_processors)
    if overrides:
        base = base.scaled(**overrides)
    return base


def uniprocessor_config(**overrides: object) -> MachineConfig:
    """A single-CPU ACE, used to measure the paper's ``Tlocal`` baseline."""
    return ace_config(n_processors=1, **overrides)
