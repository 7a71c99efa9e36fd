"""Memory access cost model.

All simulated time in the library flows through :class:`TimingModel`: word
fetch/store costs by memory location, block reference costs, and the
word-by-word page copy costs the NUMA manager pays for ``sync`` and
``copy-to-local`` actions.  The per-location word prices are one table
built once per model; every derived cost keeps its documented operand
order, so charged floats do not depend on how the price was looked up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.machine.config import TimingParameters
from repro.machine.topology import SocketTopology


class MemoryLocation(enum.Enum):
    """Where a physical frame lives, from a referencing CPU's viewpoint.

    ``LOCAL`` is the referencing processor's own local memory, ``GLOBAL``
    the shared global modules on the IPC bus, and ``REMOTE`` another
    processor's local memory (reachable on the ACE but unused by the
    paper's system; see Section 4.4).
    """

    LOCAL = "local"
    GLOBAL = "global"
    REMOTE = "remote"

    # Members are singletons compared by identity; the identity hash is
    # consistent and C-speed, which matters for the reference-counter
    # dict updates on every charged block.
    __hash__ = object.__hash__


#: Edge identifier for interconnect traffic: the flat ACE has one shared
#: IPC bus; socket machines additionally have one edge per unordered
#: socket pair and one per-socket internal link.
Edge = Tuple[str, ...]

#: The single interconnect edge of a flat (bus-only) machine.
BUS_EDGE: Edge = ("bus",)


class InterconnectContention:
    """A decaying-window ledger of interconnect busy time per edge.

    The paper assumes the ACE bus is contention-free for its workloads
    (Section 3.1) and charges no queueing delay; this ledger keeps that
    contract — it never feeds charged time — while giving *policies* a
    queueing-style utilization signal to steer placement with.  Traffic
    is recorded as busy microseconds against an edge; utilization is
    busy-time over a sliding window of simulated time, decayed
    geometrically each :meth:`advance` so old traffic stops mattering,
    and :meth:`factor` converts it into the M/M/1-style service-time
    stretch ``1 / (1 - rho)`` (capped) that
    :meth:`TimingModel.contended_fetch_us` applies.
    """

    def __init__(
        self,
        window_us: float = 20_000.0,
        max_factor: float = 8.0,
        topology: Optional[SocketTopology] = None,
    ) -> None:
        if window_us <= 0:
            raise ValueError("contention window must be positive")
        if max_factor < 1.0:
            raise ValueError("contention factor cannot stretch below 1x")
        self.window_us = window_us
        self.max_factor = max_factor
        self.topology = topology
        self._busy_us: Dict[Edge, float] = {}
        self._window_start_us = 0.0

    def edge_between(self, cpu_a: int, cpu_b: int) -> Edge:
        """The interconnect edge traffic between two CPUs travels."""
        if self.topology is None:
            return BUS_EDGE
        socket_a = self.topology.socket_of(cpu_a)
        socket_b = self.topology.socket_of(cpu_b)
        if socket_a == socket_b:
            return ("socket", str(socket_a))
        low, high = sorted((socket_a, socket_b))
        return ("xsocket", str(low), str(high))

    def record(self, edge: Edge, busy_us: float, now_us: float) -> None:
        """Charge *busy_us* of traffic to *edge* (advancing the window)."""
        self.advance(now_us)
        if busy_us > 0:
            self._busy_us[edge] = self._busy_us.get(edge, 0.0) + busy_us

    def advance(self, now_us: float) -> None:
        """Decay the ledger for the simulated time that has passed.

        Each full window that elapsed halves every edge's accumulated
        busy time — geometric decay, so a burst of page copies fades
        instead of dominating utilization forever.
        """
        elapsed = now_us - self._window_start_us
        if elapsed < self.window_us:
            return
        periods = int(elapsed // self.window_us)
        scale = 0.5 ** periods
        for edge in list(self._busy_us):
            decayed = self._busy_us[edge] * scale
            if decayed < 1e-9:
                del self._busy_us[edge]
            else:
                self._busy_us[edge] = decayed
        self._window_start_us += periods * self.window_us

    def utilization(self, edge: Edge) -> float:
        """Busy fraction of *edge* over the current window, in [0, 1)."""
        busy = self._busy_us.get(edge, 0.0)
        rho = busy / self.window_us
        return min(rho, 0.999)

    def factor(self, edge: Edge) -> float:
        """Queueing stretch for a reference crossing *edge* (>= 1.0)."""
        rho = self.utilization(edge)
        return min(self.max_factor, 1.0 / (1.0 - rho))


@dataclass(frozen=True)
class TimingModel:
    """Turns reference counts and page operations into microseconds."""

    params: TimingParameters
    page_size_words: int
    #: Socket tree on multi-level machines; ``None`` on the flat ACE
    #: (:class:`~repro.machine.machine.Machine` only passes a topology
    #: when it is actually multi-level, so a non-``None`` value here
    #: always means a socket tier exists).
    topology: Optional[SocketTopology] = None

    def __post_init__(self) -> None:
        # The price table, built once per machine: location -> the
        # ``ref_costs`` row of a flat-priced reference.  A plain
        # attribute, not a field: ``==``, ``hash`` and ``repr`` ignore it
        # and ``dataclasses.replace`` rebuilds it from its params.
        p = self.params
        rows = {
            MemoryLocation.LOCAL: (p.local_fetch_us, p.local_store_us),
            MemoryLocation.GLOBAL: (p.global_fetch_us, p.global_store_us),
            MemoryLocation.REMOTE: (p.remote_fetch_us, p.remote_store_us),
        }
        object.__setattr__(
            self, "_rows", {loc: (loc, *row) for loc, row in rows.items()}
        )

    def fetch_us(self, location: MemoryLocation) -> float:
        """Cost of one 32-bit fetch from *location*."""
        return self._rows[location][1]  # type: ignore[attr-defined]

    def store_us(self, location: MemoryLocation) -> float:
        """Cost of one 32-bit store to *location*."""
        return self._rows[location][2]  # type: ignore[attr-defined]

    def block_us(self, location: MemoryLocation, reads: int, writes: int) -> float:
        """Cost of a block of *reads* fetches and *writes* stores."""
        if reads < 0 or writes < 0:
            raise ValueError("reference counts cannot be negative")
        return reads * self.fetch_us(location) + writes * self.store_us(location)

    def page_copy_us(
        self, source: MemoryLocation, destination: MemoryLocation
    ) -> float:
        """Cost of copying one page word-by-word between memories.

        The ACE has no DMA page copier ("fast page-copying hardware" is
        suggested as future relief in Section 3.3), so a copy is a CPU loop
        of fetch+store over every word in the page — discounted by the
        bulk-transfer factor because the kernel's copy loop uses
        load/store-multiple instructions and the IPC bus bursts
        consecutive words.
        """
        per_word = self.fetch_us(source) + self.store_us(destination)
        return (
            self.page_size_words * per_word * self.params.bulk_transfer_factor
        )

    def zero_fill_us(self, destination: MemoryLocation) -> float:
        """Cost of zero-filling one page (a bulk store per word)."""
        return (
            self.page_size_words
            * self.store_us(destination)
            * self.params.bulk_transfer_factor
        )

    # -- topology-aware costs ------------------------------------------------
    #
    # On the flat ACE every method below reduces to the classic two-level
    # expressions with *identical* float arithmetic, so existing results
    # stay byte-identical.  On a multi-level machine, a reference to
    # another CPU's local memory on the *same* socket travels the socket
    # interconnect rather than the cross-socket path; the location label
    # stays REMOTE (counters and the directory still see a remote frame),
    # only the per-word price changes.

    def ref_costs(
        self, cpu: int, frame
    ) -> Tuple[MemoryLocation, float, float]:
        """``(location, fetch_us, store_us)`` for *cpu* referencing *frame*."""
        location = frame.location_for(cpu)
        topology = self.topology
        if (
            topology is not None
            and location is MemoryLocation.REMOTE
            and frame.node is not None
            and topology.same_socket(frame.node, cpu)
        ):
            return (
                location,
                topology.socket_fetch_us,
                topology.socket_store_us,
            )
        return self._rows[location]  # type: ignore[attr-defined]

    def page_copy_us_for(self, cpu: int, source, destination) -> float:
        """Distance-aware :meth:`page_copy_us` executed by *cpu*.

        *source* and *destination* may each be a frame (socket distance
        applies) or a plain :class:`MemoryLocation` (flat pricing: the
        table row).
        """
        rows = self._rows  # type: ignore[attr-defined]
        if isinstance(source, MemoryLocation):
            src_fetch = rows[source][1]
        else:
            src_fetch = self.ref_costs(cpu, source)[1]
        if isinstance(destination, MemoryLocation):
            dst_store = rows[destination][2]
        else:
            dst_store = self.ref_costs(cpu, destination)[2]
        return (
            self.page_size_words
            * (src_fetch + dst_store)
            * self.params.bulk_transfer_factor
        )

    # -- contention-aware pricing --------------------------------------------
    #
    # The contention ledger is a method argument, never a field: the
    # frozen model's default pricing paths are untouched, so every
    # existing simulation (and its golden bytes) is unaffected.  Only
    # policies that *choose* to consult the contended oracle see these
    # numbers, and they use them for decisions, not for charged time.

    def contended_fetch_us(
        self,
        location: MemoryLocation,
        contention: Optional[InterconnectContention],
        edge: Optional[Edge] = None,
    ) -> float:
        """:meth:`fetch_us` with the edge's queueing stretch applied."""
        cost = self.fetch_us(location)
        if contention is None or location is MemoryLocation.LOCAL:
            return cost
        return cost * contention.factor(edge if edge is not None else BUS_EDGE)

    @property
    def fault_overhead_us(self) -> float:
        """Fixed trap + machine-independent fault path cost."""
        return self.params.fault_overhead_us

    @property
    def mapping_op_us(self) -> float:
        """Cost of one local pmap mapping change."""
        return self.params.mapping_op_us

    @property
    def shootdown_us(self) -> float:
        """Cost of asking another CPU to drop or downgrade a mapping."""
        return self.params.shootdown_us
