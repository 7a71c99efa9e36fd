"""Physical memory: global modules and per-processor local memories.

Frames are identified by :class:`Frame` values and handed out by
:class:`PhysicalMemory`.  Each frame carries an abstract *content token* —
an opaque integer standing in for the page's data — so tests can verify
that the consistency protocol's syncs and copies never lose or duplicate
writes (a read must always observe the most recently written token).
Frames are immutable, interned values: one ``Frame`` object per
``(kind, node, index)`` triple, which every pool hands out and every
hand-built frame is.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple

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


class Frame:
    """A physical page frame.

    ``node`` is the owning processor for local frames and ``None`` for
    global frames.  Frames are immutable values, interned: there is one
    object per ``(kind, node, index)`` triple, validated when first
    built, so equality and hashing are identity's and run at C speed on
    the fault path, where frames key the MMU's reverse map, the
    directory and the content tokens.
    """

    __slots__ = ("kind", "node", "index", "shared")

    kind: FrameKind
    node: Optional[int]
    index: int
    #: Not any one CPU's own memory (a GLOBAL or SOCKET frame); set once.
    shared: bool

    def __new__(
        cls, kind: FrameKind, node: Optional[int], index: int
    ) -> "Frame":
        key = (kind, node, index)
        frame = _FRAMES.get(key)
        if frame is not None:
            return frame
        if kind is FrameKind.LOCAL and node is None:
            raise ValueError("local frames must name their processor")
        if kind is FrameKind.SOCKET and node is None:
            raise ValueError("socket frames must name their socket")
        if kind is FrameKind.GLOBAL and node is not None:
            raise ValueError("global frames have no owning processor")
        frame = object.__new__(cls)
        object.__setattr__(frame, "kind", kind)
        object.__setattr__(frame, "node", node)
        object.__setattr__(frame, "index", index)
        object.__setattr__(frame, "shared", kind is not FrameKind.LOCAL)
        return _FRAMES.setdefault(key, frame)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Frame")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Frame")

    def __reduce__(self):
        # Pickle, copy and deepcopy rebuild through the intern table, so
        # each returns the one frame for the triple.
        return (Frame, (self.kind, self.node, self.index))

    def __repr__(self) -> str:
        return (
            f"Frame(kind={self.kind!r}, node={self.node!r}, "
            f"index={self.index!r})"
        )

    def location_for(self, cpu: int) -> MemoryLocation:
        """Where this frame appears to be from *cpu*'s point of view.

        Socket-shared frames classify as GLOBAL — they are shared, not
        any one CPU's own memory; their cheaper same-socket price is
        applied by :meth:`TimingModel.ref_costs`, not by this label.
        """
        if self.shared:
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


#: The intern table: every frame ever built, by its triple.  Bounded by
#: the frames the machines of one process ever name.
_FRAMES: Dict[Tuple[FrameKind, Optional[int], int], Frame] = {}


class _FramePool:
    """Free-list allocator for one bank of frames."""

    def __init__(self, kind: FrameKind, node: Optional[int], capacity: int) -> None:
        self._kind = kind
        self._node = node
        self._capacity = capacity
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
        # A reallocated index reads the intern table in place, without
        # the constructor call; a first allocation builds the frame.
        frame = _FRAMES.get((self._kind, self._node, index))
        if frame is None:
            frame = Frame(self._kind, self._node, index)
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
