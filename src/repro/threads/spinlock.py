"""Spin locks as the paper's applications use them.

The applications "synchronize their threads using non-blocking spin
locks" and "none of the applications spend much time contending for locks"
(Section 3.1).  Because the engine executes one operation at a time, a
lock can never be observed held; what a spin lock contributes to the
simulation is its *memory traffic*: the lock word is writably shared, so
the page holding it ping-pongs and is quickly pinned in global memory —
a genuine, paper-faithful source of global references in every C-Threads
workload that uses a work queue.

:class:`SpinLock` therefore emits the references of an uncontended
acquire/release pair (one test-and-set read-modify-write, one store to
release) plus a small instruction cost.

Lock *ordering* is observable: any number of module-level observers
(installed with :func:`add_lock_observer`) are told about every
acquire/release as the generator bodies execute, which is exactly when
the simulated thread performs them.  The protocol sanitizer's
:class:`~repro.check.lockorder.LockOrderChecker` uses this to build the
lock-acquisition graph and flag A→B/B→A ordering cycles, and the race
detector (:mod:`repro.check.races`) uses the same notifications for its
lockset/happens-before tracking — the list (mirroring the event bus's
multi-observer fan-out) lets both run in the same simulation.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.sim.ops import Compute, MemBlock, Op

#: Instruction overhead of an uncontended acquire or release, µs.
_LOCK_PATH_US = 3.0

#: The installed lock observers, in installation order (the common,
#: untracked case is an empty list).  Duck-typed: each receives
#: ``on_lock_acquire(holder, vpage)`` and
#: ``on_lock_release(holder, vpage)``.
_lock_observers: List[object] = []


def add_lock_observer(observer: object) -> object:
    """Install *observer* for all locks (idempotent); returns it.

    Observers are notified in installation order.  Remove with
    :func:`remove_lock_observer` when done (the harness does this per
    run).
    """
    if observer is None:
        raise ValueError("cannot install None as a lock observer")
    if observer not in _lock_observers:
        _lock_observers.append(observer)
    return observer


def remove_lock_observer(observer: object) -> None:
    """Uninstall *observer*; unknown observers are ignored."""
    try:
        _lock_observers.remove(observer)
    except ValueError:
        pass


def lock_observers() -> List[object]:
    """The currently installed lock observers, installation order."""
    return list(_lock_observers)


class SpinLock:
    """A lock word living at a fixed virtual page."""

    def __init__(self, vpage: int, word_offset: int = 0) -> None:
        self._vpage = vpage
        self._word_offset = word_offset
        self._acquisitions = 0

    @property
    def vpage(self) -> int:
        """The virtual page holding the lock word."""
        return self._vpage

    @property
    def acquisitions(self) -> int:
        """Completed acquire/release pairs."""
        return self._acquisitions

    def acquire(self, holder: object = None) -> Iterator[Op]:
        """Ops for an uncontended acquire (test-and-set: fetch + store).

        ``holder`` identifies the acquiring thread for lock-order
        tracking; the default anonymous holder still yields correct
        memory traffic, it just cannot contribute ordering edges.
        """
        for observer in _lock_observers:
            observer.on_lock_acquire(holder, self._vpage)
        yield Compute(_LOCK_PATH_US)
        yield MemBlock(self._vpage, reads=1, writes=1)

    def release(self, holder: object = None) -> Iterator[Op]:
        """Ops for a release (a single store)."""
        self._acquisitions += 1
        for observer in _lock_observers:
            observer.on_lock_release(holder, self._vpage)
        yield Compute(_LOCK_PATH_US)
        yield MemBlock(self._vpage, reads=0, writes=1)

    def critical_section(
        self, body_ops: Iterator[Op], holder: object = None
    ) -> Iterator[Op]:
        """Acquire, run *body_ops*, release."""
        yield from self.acquire(holder)
        yield from body_ops
        yield from self.release(holder)
