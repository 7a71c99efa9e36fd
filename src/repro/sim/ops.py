"""Operations a simulated thread can perform.

Workload threads are Python generators that yield these value objects;
the engine executes each one against the machine, charging time and
driving faults.  Reference *blocks* rather than single references keep the
event count tractable while preserving exact per-word costs (DESIGN.md
§5.1).

Ops are frozen values and nothing downstream depends on an op's
identity, so a body re-yields the instance it already has instead of
constructing an equal one (:func:`reuse_ops`, DESIGN.md §5.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple, Union

from repro.vm.vm_object import VMObject


@dataclass(frozen=True)
class Compute:
    """Pure computation: *us* microseconds of user time, no memory traffic.

    Models register-register instruction execution (and instruction fetch
    from replicated text, which is local under every policy and therefore
    folded into the instruction cost, as the paper's β definition does).
    """

    us: float

    def __post_init__(self) -> None:
        # The engine adds ``us`` to a CPU clock unchecked: check it here.
        if not 0.0 <= self.us < math.inf:
            raise ValueError("compute time must be finite and non-negative")


@dataclass(frozen=True)
class MemBlock:
    """A batch of data references to a single virtual page.

    ``reads`` fetches and ``writes`` stores, charged at the speed of
    wherever the page is mapped after any faults resolve.  Reads are
    issued before writes; a block that both reads and writes an unmapped
    page therefore faults twice (read fault mapping it read-only, then a
    write fault upgrading it), exactly the double-fault pattern the
    paper's min/max-protection extension creates on purpose.
    """

    vpage: int
    reads: int = 0
    writes: int = 0

    def __post_init__(self) -> None:
        if self.reads < 0 or self.writes < 0:
            raise ValueError("reference counts cannot be negative")
        if self.reads == 0 and self.writes == 0:
            raise ValueError("a MemBlock must reference memory")


@dataclass(frozen=True)
class Barrier:
    """Synchronize: the thread waits until every live thread reaches it.

    Used by workloads for init/compute phase separation (e.g. IMatMult's
    matrices are initialized before anyone multiplies).  Barrier waiting
    costs no user time: the paper's applications synchronize with
    non-contended spin locks whose cost it measured as negligible.
    """

    name: str


@dataclass(frozen=True)
class Syscall:
    """A Unix system call, executed on the Unix-master processor.

    Mach at the time ran the in-kernel Unix compatibility code on a single
    "Unix Master" processor (Section 4.6); a syscall therefore charges its
    service time there, and any user pages it touches are referenced
    *from the master processor*, which is exactly the mechanism that
    drags single-thread stack pages into global memory.
    """

    service_us: float
    #: Pages of user memory the call reads/writes: (vpage, reads, writes).
    touched: Tuple[Tuple[int, int, int], ...] = ()
    #: Syscall name (``sigvec``, ``fstat``, ...), used by the Unix-master
    #: model to apply the paper's ad hoc patches.
    name: str = ""


@dataclass(frozen=True)
class FreeObjectPages:
    """Free every resident page of a VM object (e.g. a dropped buffer)."""

    vm_object: VMObject


Op = Union[Compute, MemBlock, Barrier, Syscall, FreeObjectPages]


def reuse_ops(op_type: type) -> Callable[..., Op]:
    """A constructor for *op_type* that re-yields what it already built.

    Equal arguments return the one frozen instance built the first time.
    A workload build makes its own and drops it with the bodies, so the
    memo holds a build's *distinct* ops — never a stream, never a process.
    """
    return lru_cache(maxsize=None)(op_type)
