"""Physical memory: global modules and per-processor local memories.

Frames are identified by :class:`Frame` values and handed out by
:class:`PhysicalMemory`.  Each frame carries an abstract *content token* —
an opaque integer standing in for the page's data — so tests can verify
that the consistency protocol's syncs and copies never lose or duplicate
writes (a read must always observe the most recently written token).
Frames are immutable values and each pool interns its own: one ``Frame``
object per index, equal to any other built from the same triple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import OutOfMemoryError
from repro.machine.config import MachineConfig
from repro.machine.timing import MemoryLocation


class FrameKind(enum.Enum):
    """Which memory bank a frame belongs to.

    ``LOCAL`` frames live in a processor's own memory and ``GLOBAL``
    frames in the bus-shared modules — the paper's two levels.  On
    multi-level machines a third bank exists: ``SOCKET`` frames live in
    a socket's shared tier (they host replicated page tables; ``node``
    names the socket rather than a processor).  Flat machines never
    create SOCKET frames.
    """

    LOCAL = "local"
    GLOBAL = "global"
    SOCKET = "socket"

    __hash__ = object.__hash__  # identity hash; members are singletons


@dataclass(frozen=True)
class Frame:
    """A physical page frame.

    ``node`` is the owning processor for local frames and ``None`` for
    global frames.  Frames are value objects: equality and hashing follow
    from the identifying triple.
    """

    kind: FrameKind
    node: Optional[int]
    index: int

    def __post_init__(self) -> None:
        if self.kind is FrameKind.LOCAL and self.node is None:
            raise ValueError("local frames must name their processor")
        if self.kind is FrameKind.SOCKET and self.node is None:
            raise ValueError("socket frames must name their socket")
        if self.kind is FrameKind.GLOBAL and self.node is not None:
            raise ValueError("global frames have no owning processor")
        # Frames key the MMU's reverse map and directory structures, so
        # the (immutable) field-tuple hash is computed once up front.
        object.__setattr__(
            self, "_hash", hash((self.kind, self.node, self.index))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def location_for(self, cpu: int) -> MemoryLocation:
        """Where this frame appears to be from *cpu*'s point of view.

        Socket-shared frames classify as GLOBAL — they are shared, not
        any one CPU's own memory; their cheaper same-socket price is
        applied by :meth:`TimingModel.ref_costs`, not by this label.
        """
        if self.kind is FrameKind.GLOBAL or self.kind is FrameKind.SOCKET:
            return MemoryLocation.GLOBAL
        if self.node == cpu:
            return MemoryLocation.LOCAL
        return MemoryLocation.REMOTE

    def __str__(self) -> str:
        if self.kind is FrameKind.GLOBAL:
            return f"global[{self.index}]"
        if self.kind is FrameKind.SOCKET:
            return f"socket[{self.node}][{self.index}]"
        return f"local[cpu{self.node}][{self.index}]"


class _FramePool:
    """Free-list allocator for one bank of frames."""

    def __init__(self, kind: FrameKind, node: Optional[int], capacity: int) -> None:
        self._kind = kind
        self._node = node
        self._capacity = capacity
        #: The one ``Frame`` per index ever handed out: validated and
        #: hashed once, the same object again on reallocation.
        self._frames: Dict[int, Frame] = {}
        self._free = list(range(capacity - 1, -1, -1))
        self._allocated: set[int] = set()
        #: Frames retired from circulation (simulated ECC failure); they
        #: are never handed out again and do not count as available.
        self._offline: set[int] = set()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        return len(self._allocated)

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def offline(self) -> int:
        return len(self._offline)

    def _where(self) -> str:
        if self._kind is FrameKind.GLOBAL:
            return "global memory"
        if self._kind is FrameKind.SOCKET:
            return f"shared memory of socket {self._node}"
        return f"local memory of cpu {self._node}"

    def allocate(self) -> Frame:
        if not self._free:
            raise OutOfMemoryError(
                f"no free frames in {self._where()}",
                capacity=self._capacity,
                in_use=len(self._allocated),
                where=self._where(),
                details={"offline": len(self._offline)},
            )
        index = self._free.pop()
        self._allocated.add(index)
        frame = self._frames.get(index)
        if frame is None:
            frame = self._frames[index] = Frame(self._kind, self._node, index)
        return frame

    def free(self, frame: Frame) -> None:
        if frame.index not in self._allocated:
            raise OutOfMemoryError(f"double free of {frame}")
        self._allocated.remove(frame.index)
        if frame.index not in self._offline:
            self._free.append(frame.index)

    def retire(self, frame: Frame) -> None:
        """Take a frame out of circulation permanently (ECC failure).

        A free frame leaves the free list immediately; an allocated one
        is marked so that :meth:`free` will not recycle it.  Retiring an
        already-offline frame is a no-op.
        """
        if frame.index in self._offline:
            return
        self._offline.add(frame.index)
        if frame.index in self._free:
            self._free.remove(frame.index)


class PhysicalMemory:
    """All physical frames of a machine, with content-token bookkeeping."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self._global = _FramePool(FrameKind.GLOBAL, None, config.global_pages)
        self._local = {
            cpu: _FramePool(FrameKind.LOCAL, cpu, config.local_pages_per_cpu)
            for cpu in config.cpus
        }
        # Socket-shared pools exist only on multi-level machines with a
        # sized socket tier; the flat ACE builds none.
        self._socket: Dict[int, _FramePool] = {}
        topology = config.topology
        if topology is not None and topology.socket_pages > 0:
            self._socket = {
                sid: _FramePool(FrameKind.SOCKET, sid, topology.socket_pages)
                for sid in range(topology.n_sockets)
            }
        self._tokens: Dict[Frame, int] = {}

    # -- allocation ------------------------------------------------------

    def allocate_global(self) -> Frame:
        """Allocate a frame of global memory."""
        frame = self._global.allocate()
        self._tokens[frame] = 0
        return frame

    def allocate_local(self, cpu: int) -> Frame:
        """Allocate a frame in *cpu*'s local memory."""
        frame = self._local[cpu].allocate()
        self._tokens[frame] = 0
        return frame

    def allocate_socket(self, socket: int) -> Frame:
        """Allocate a frame in *socket*'s shared tier (multi-level only)."""
        if socket not in self._socket:
            raise OutOfMemoryError(
                f"machine has no shared memory on socket {socket}"
            )
        frame = self._socket[socket].allocate()
        self._tokens[frame] = 0
        return frame

    def free(self, frame: Frame) -> None:
        """Return *frame* to its pool; its contents are discarded."""
        if frame.kind is FrameKind.GLOBAL:
            self._global.free(frame)
        elif frame.kind is FrameKind.SOCKET:
            assert frame.node is not None
            self._socket[frame.node].free(frame)
        else:
            assert frame.node is not None
            self._local[frame.node].free(frame)
        self._tokens.pop(frame, None)

    # -- contents --------------------------------------------------------

    def write_token(self, frame: Frame, token: int) -> None:
        """Record that *frame* now holds data version *token*."""
        if frame not in self._tokens:
            raise OutOfMemoryError(f"write to unallocated frame {frame}")
        self._tokens[frame] = token

    def read_token(self, frame: Frame) -> int:
        """Return the data version currently held by *frame*."""
        if frame not in self._tokens:
            raise OutOfMemoryError(f"read from unallocated frame {frame}")
        return self._tokens[frame]

    def copy(self, source: Frame, destination: Frame) -> None:
        """Copy page contents (the token) from *source* to *destination*."""
        tokens = self._tokens
        if source not in tokens:
            raise OutOfMemoryError(f"read from unallocated frame {source}")
        if destination not in tokens:
            raise OutOfMemoryError(
                f"write to unallocated frame {destination}"
            )
        tokens[destination] = tokens[source]

    # -- fault injection -------------------------------------------------

    def take_offline(self, frame: Frame) -> None:
        """Retire *frame* permanently (simulated ECC failure).

        The frame never re-enters its free list.  Callers are expected
        to have evacuated any page contents first (the NUMA manager's
        frame-failure recovery syncs and flushes before retiring); an
        allocated frame may still be retired, in which case its eventual
        :meth:`free` simply discards it.
        """
        if frame.kind is FrameKind.GLOBAL:
            self._global.retire(frame)
        elif frame.kind is FrameKind.SOCKET:
            assert frame.node is not None
            self._socket[frame.node].retire(frame)
        else:
            assert frame.node is not None
            self._local[frame.node].retire(frame)

    def local_offline(self, cpu: int) -> int:
        """Frames of *cpu*'s local memory retired by injected failures."""
        return self._local[cpu].offline

    def allocated_local_frames(self) -> list:
        """Every allocated local frame, sorted for deterministic choice."""
        return sorted(
            (f for f in self._tokens if f.kind is FrameKind.LOCAL),
            key=lambda f: (f.node, f.index),
        )

    def online_local_frames(self) -> list:
        """Every local frame not yet retired, allocated or free.

        Fault injection draws ECC victims from here when no frame is
        currently allocated — a real failure does not wait for the frame
        to hold data.  Sorted by (node, index) for deterministic choice.
        """
        frames = []
        for cpu in self._config.cpus:
            pool = self._local[cpu]
            frames.extend(
                Frame(FrameKind.LOCAL, cpu, index)
                for index in range(pool.capacity)
                if index not in pool._offline
            )
        return frames

    # -- occupancy -------------------------------------------------------

    def global_available(self) -> int:
        """Free global frames remaining."""
        return self._global.available

    def local_available(self, cpu: int) -> int:
        """Free local frames remaining on *cpu*."""
        return self._local[cpu].available

    def socket_available(self, socket: int) -> int:
        """Free socket-shared frames remaining on *socket*."""
        return self._socket[socket].available

    def global_in_use(self) -> int:
        """Global frames currently allocated."""
        return self._global.in_use

    def local_in_use(self, cpu: int) -> int:
        """Local frames currently allocated on *cpu*."""
        return self._local[cpu].in_use

    def allocated_frames(self) -> Iterator[Frame]:
        """Iterate over every allocated frame (order unspecified)."""
        return iter(list(self._tokens.keys()))
