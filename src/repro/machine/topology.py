"""Multi-level NUMA topologies and the named-machine registry.

The paper's ACE is a two-level machine: per-processor local memory in
front of bus-shared global memory.  Modern NUMA machines are socket (or
domain) *hierarchies*: each CPU has its own local tier, CPUs on one
socket share an intermediate tier, and sockets reach each other over a
slower interconnect.  :class:`SocketTopology` captures that tree — the
socket grouping plus the per-edge fetch/store latencies of the
socket-shared tier — and :data:`MACHINE_REGISTRY` names complete
machines (``ace``, ``2socket8``, ``4socket32``) so RunSpecs and the CLI
can select them declaratively.

The ``ace`` entry is the flat default: every CPU its own singleton
socket, no socket-shared tier, no page-table modeling.  A flat topology
is *inert* — every cost and every protocol decision reduces to the
classic two-level model, byte for byte — so existing ACE results are
unchanged by this layer's existence.

On multi-level machines the socket tier matters twice:

* **Distance-aware references** — a reference to *another* CPU's local
  memory on the *same* socket travels the socket interconnect
  (``socket_fetch_us``/``socket_store_us``), not the cross-socket path
  (``remote_*_us``); the NUMA manager prefers such same-socket remote
  mappings over migrating a dirty page (Section 4.4's mechanism at
  socket distance).
* **Page-table placement** — the per-socket shared tier is where
  Mitosis-style replicated page tables live
  (:mod:`repro.machine.pagetable`); ``pt_walk_refs`` models the memory
  references one hardware table walk performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.registry import Registry


@dataclass(frozen=True)
class SocketTopology:
    """The machine's socket tree plus the socket tier's edge latencies.

    ``sockets`` lists the CPU ids of each socket; together they must
    partition ``0 .. n_cpus-1``.  The socket tier's latencies sit
    between the local and global tiers (``local ≤ socket ≤ global``)
    for both fetch and store — a socket interconnect slower than the
    global bus would make the tier pointless.
    """

    name: str
    sockets: Tuple[Tuple[int, ...], ...]
    #: Per-word cost of a same-socket reference that leaves the CPU's
    #: own local memory (socket-shared frames, or a neighbour's local
    #: memory reached without crossing sockets).
    socket_fetch_us: float = 1.1
    socket_store_us: float = 1.05
    #: Memory references one hardware page-table walk performs (the
    #: radix levels a real walker touches on a TLB miss that faults).
    pt_walk_refs: int = 4
    #: Socket-shared frames per socket (hosts replicated page tables).
    socket_pages: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sockets", tuple(tuple(s) for s in self.sockets)
        )
        seen: List[int] = sorted(c for s in self.sockets for c in s)
        if not self.sockets or not seen:
            raise ConfigurationError("a topology needs at least one CPU")
        if seen != list(range(len(seen))):
            raise ConfigurationError(
                f"topology {self.name!r}: sockets must partition "
                f"0..{len(seen) - 1}, got {seen}"
            )
        # Socket id per cpu, precomputed: the timing model asks on the
        # reference fast path.
        socket_of = [0] * len(seen)
        for sid, cpus in enumerate(self.sockets):
            for cpu in cpus:
                socket_of[cpu] = sid
        object.__setattr__(self, "_socket_of", tuple(socket_of))

    # -- shape ---------------------------------------------------------------

    @property
    def n_cpus(self) -> int:
        """Processors across all sockets."""
        return len(self._socket_of)  # type: ignore[attr-defined]

    @property
    def n_sockets(self) -> int:
        """Sockets in the tree."""
        return len(self.sockets)

    @property
    def multilevel(self) -> bool:
        """Whether a socket tier actually exists.

        A topology whose sockets are all singletons *is* the paper's
        flat two-level machine: no CPU shares a socket with another, so
        the socket tier never carries a reference and the whole layer
        stays inert (costs, counters, and protocol decisions are
        byte-identical to a machine with no topology at all).
        """
        return any(len(cpus) > 1 for cpus in self.sockets)

    def socket_of(self, cpu: int) -> int:
        """The socket *cpu* sits on."""
        return self._socket_of[cpu]  # type: ignore[attr-defined]

    def same_socket(self, a: int, b: int) -> bool:
        """Whether two processors share a socket."""
        socket_of = self._socket_of  # type: ignore[attr-defined]
        return socket_of[a] == socket_of[b]

    # -- validation ----------------------------------------------------------

    def validate(self, timing) -> None:
        """Check the tree and its latencies against *timing* parameters."""
        if self.socket_fetch_us <= 0 or self.socket_store_us <= 0:
            raise ConfigurationError("socket latencies must be positive")
        if self.pt_walk_refs < 1:
            raise ConfigurationError("pt_walk_refs must be at least 1")
        if self.socket_pages < 0:
            raise ConfigurationError("socket_pages cannot be negative")
        if not self.multilevel:
            return
        if not (
            timing.local_fetch_us
            <= self.socket_fetch_us
            <= timing.global_fetch_us
        ):
            raise ConfigurationError(
                "socket fetch latency must sit between local and global "
                f"({timing.local_fetch_us} <= {self.socket_fetch_us} "
                f"<= {timing.global_fetch_us} violated)"
            )
        if not (
            timing.local_store_us
            <= self.socket_store_us
            <= timing.global_store_us
        ):
            raise ConfigurationError(
                "socket store latency must sit between local and global "
                f"({timing.local_store_us} <= {self.socket_store_us} "
                f"<= {timing.global_store_us} violated)"
            )


def flat_topology(n_cpus: int, name: str = "flat") -> SocketTopology:
    """The paper's two-level machine as a degenerate topology tree."""
    return SocketTopology(
        name=name,
        sockets=tuple((cpu,) for cpu in range(n_cpus)),
        socket_pages=0,
    )


# -- the named-machine registry ----------------------------------------------


@dataclass(frozen=True)
class MachineEntry:
    """One registry row: a named machine and how to build it."""

    name: str
    description: str
    #: Builds the full MachineConfig.  ``n_processors`` is honoured only
    #: by machines whose processor count is free (the flat ``ace``);
    #: topology-bearing machines pin their own count.
    factory: Callable[[Optional[int]], "object"]


def _ace_factory(n_processors: Optional[int]):
    from repro.machine.config import ace_config

    return ace_config(7 if n_processors is None else n_processors)


def _two_socket_factory(n_processors: Optional[int]):
    from repro.machine.config import MachineConfig

    return MachineConfig(
        n_processors=8,
        topology=SocketTopology(
            name="2socket8",
            sockets=((0, 1, 2, 3), (4, 5, 6, 7)),
        ),
    )


def _four_socket_factory(n_processors: Optional[int]):
    from repro.machine.config import MachineConfig

    return MachineConfig(
        n_processors=32,
        global_pages=8192,
        enforce_backplane=False,
        topology=SocketTopology(
            name="4socket32",
            sockets=tuple(
                tuple(range(s * 8, s * 8 + 8)) for s in range(4)
            ),
        ),
    )


MACHINE_REGISTRY: Registry[MachineEntry] = Registry("machine", {
    "ace": MachineEntry(
        name="ace",
        description="the paper's flat two-level ACE (default; "
        "--processors selects the CPU count, default 7)",
        factory=_ace_factory,
    ),
    "2socket8": MachineEntry(
        name="2socket8",
        description="2 sockets x 4 CPUs with a socket-shared tier "
        "(smallest multi-level machine)",
        factory=_two_socket_factory,
    ),
    "4socket32": MachineEntry(
        name="4socket32",
        description="4 sockets x 8 CPUs, 32 processors beyond the ACE "
        "backplane envelope (page-table placement studies)",
        factory=_four_socket_factory,
    ),
})


def resolve_machine(name: str, n_processors: Optional[int] = None):
    """Build the named machine's :class:`MachineConfig` from the registry.

    ``n_processors`` is honoured only by machines whose processor count
    is free (the flat ``ace``); an unknown name raises
    :class:`ConfigurationError`, which the CLI maps to exit code 2.
    """
    return MACHINE_REGISTRY.resolve(name).factory(n_processors)


def registry_rows() -> List[Dict[str, object]]:
    """Deterministic listing for ``repro-numa topologies`` (and --json)."""
    rows: List[Dict[str, object]] = []
    for entry in MACHINE_REGISTRY.values():
        config = entry.factory(None)
        topo = config.topology
        rows.append(
            {
                "name": entry.name,
                "cpus": config.n_processors,
                "sockets": 0 if topo is None else topo.n_sockets,
                "multilevel": topo is not None and topo.multilevel,
                "socket_fetch_us": (
                    None if topo is None or not topo.multilevel
                    else topo.socket_fetch_us
                ),
                "socket_store_us": (
                    None if topo is None or not topo.multilevel
                    else topo.socket_store_us
                ),
                "page_tables": config.page_tables,
                "description": entry.description,
            }
        )
    return rows
