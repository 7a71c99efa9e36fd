"""Spin-lock acquisition-order checking (deadlock-shape detection).

The engine's round-robin interleaving means a simulated spin lock is
never *observed* held across threads, so a classic ABBA deadlock cannot
hang a run — but the ordering bug is still there in the workload, and on
the real machine the paper simulates it would hang.  The checker builds
the *acquisition graph*: one node per lock (identified by the virtual
page holding the lock word), and an edge ``A -> B`` whenever some thread
acquires ``B`` while holding ``A``.  A cycle in that graph is an
ordering violation: two threads can interleave into a deadlock.

:class:`LockOrderChecker` receives the same ``on_lock_acquire`` /
``on_lock_release`` notifications observers installed with
:func:`repro.threads.spinlock.add_lock_observer` get, so it can run
standalone in tests or inside the runtime sanitizer.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolViolation

#: Frames below the workload: the notification plumbing itself.  The
#: acquisition-site walk skips these so a report names the ``yield from
#: lock.acquire(...)`` line in the application, not the observer hook.
_PLUMBING_FILES = frozenset(
    {"spinlock.py", "lockorder.py", "sanitizer.py", "races.py"}
)


def _acquisition_site() -> str:
    """``file:line`` of the nearest non-plumbing caller frame.

    Spin-lock bodies are generators driven through ``yield from``
    chains, so the first frame outside the plumbing is the workload
    line performing the acquire — exactly what a cycle report should
    point at.
    """
    frame = sys._getframe(1)
    while frame is not None:
        name = os.path.basename(frame.f_code.co_filename)
        if name not in _PLUMBING_FILES:
            return f"{name}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class LockOrderChecker:
    """Cycle detection over the spin-lock acquisition graph."""

    def __init__(self) -> None:
        #: Locks currently held, per holder, in acquisition order,
        #: with the ``file:line`` that acquired each.
        self._held: Dict[object, List[Tuple[int, str]]] = {}
        #: The acquisition graph: outer lock -> inner locks.
        self._edges: Dict[int, Set[int]] = {}
        #: First holder that created each edge (violation reporting).
        self._witness: Dict[Tuple[int, int], object] = {}
        #: Acquisition sites of the first witness per edge: where the
        #: outer lock was taken and where the inner followed.
        self._edge_sites: Dict[Tuple[int, int], Tuple[str, str]] = {}
        self._acquisitions = 0

    # -- notification hooks (spinlock observer protocol) -------------------

    def on_lock_acquire(self, holder: object, vpage: int) -> None:
        """Record that *holder* acquired the lock at *vpage*."""
        self._acquisitions += 1
        site = _acquisition_site()
        held = self._held.setdefault(holder, [])
        for outer, outer_site in held:
            if outer == vpage:
                continue
            inner = self._edges.setdefault(outer, set())
            if vpage not in inner:
                inner.add(vpage)
                self._witness[(outer, vpage)] = holder
                self._edge_sites[(outer, vpage)] = (outer_site, site)
        held.append((vpage, site))

    def on_lock_release(self, holder: object, vpage: int) -> None:
        """Record that *holder* released the lock at *vpage*.

        Releases unwind the most recent matching acquisition, so
        re-entrant acquire/release pairs nest correctly.
        """
        held = self._held.get(holder)
        if not held:
            return
        for index in range(len(held) - 1, -1, -1):
            if held[index][0] == vpage:
                del held[index]
                break

    # -- introspection ------------------------------------------------------

    @property
    def acquisitions(self) -> int:
        """Total acquisitions observed."""
        return self._acquisitions

    def held_by(self, holder: object) -> List[int]:
        """Locks *holder* currently holds, outermost first."""
        return [vpage for vpage, _ in self._held.get(holder, [])]

    def edges(self) -> Dict[int, Set[int]]:
        """A copy of the acquisition graph."""
        return {outer: set(inner) for outer, inner in self._edges.items()}

    def witness(self, outer: int, inner: int) -> Optional[object]:
        """The holder that first acquired *inner* while holding *outer*."""
        return self._witness.get((outer, inner))

    def edge_sites(self, outer: int, inner: int) -> Optional[Tuple[str, str]]:
        """``(outer_site, inner_site)`` for the edge's first witness."""
        return self._edge_sites.get((outer, inner))

    # -- cycle detection ----------------------------------------------------

    def find_cycle(self) -> Optional[List[int]]:
        """A cycle in the acquisition graph as ``[a, b, ..., a]``, if any.

        Iterative three-color depth-first search; deterministic because
        nodes and edges are visited in sorted order.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[int, int] = {}
        parent: Dict[int, int] = {}
        for root in sorted(self._edges):
            if color.get(root, WHITE) is not WHITE:
                continue
            stack: List[Tuple[int, List[int]]] = [
                (root, sorted(self._edges.get(root, ())))
            ]
            color[root] = GREY
            while stack:
                node, successors = stack[-1]
                advanced = False
                while successors:
                    succ = successors.pop(0)
                    state = color.get(succ, WHITE)
                    if state == GREY:
                        # Back edge: walk parents to reconstruct the loop
                        # succ -> ... -> node -> succ.
                        cycle = [node]
                        walker = node
                        while walker != succ:
                            walker = parent[walker]
                            cycle.append(walker)
                        cycle.reverse()
                        cycle.append(succ)
                        return cycle
                    if state == WHITE:
                        color[succ] = GREY
                        parent[succ] = node
                        stack.append(
                            (succ, sorted(self._edges.get(succ, ())))
                        )
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def check(self, events: Tuple[Dict[str, object], ...] = ()) -> None:
        """Raise :class:`ProtocolViolation` if the graph has a cycle."""
        cycle = self.find_cycle()
        if cycle is None:
            return
        pairs = list(zip(cycle, cycle[1:]))
        witnesses = {}
        sites = {}
        edge_events: List[Dict[str, object]] = []
        for outer, inner in pairs:
            key = f"{outer}->{inner}"
            witnesses[key] = repr(self._witness.get((outer, inner)))
            outer_site, inner_site = self._edge_sites.get(
                (outer, inner), ("<unknown>", "<unknown>")
            )
            sites[key] = f"{outer_site} then {inner_site}"
            edge_events.append(
                {
                    "t": "lock_edge",
                    "outer": outer,
                    "inner": inner,
                    "outer_site": outer_site,
                    "inner_site": inner_site,
                    "holder": witnesses[key],
                }
            )
        path = " -> ".join(str(lock) for lock in cycle)
        raise ProtocolViolation(
            f"spin-lock ordering cycle: {path}",
            check="lock-order",
            events=tuple(events) + tuple(edge_events),
            details={
                "cycle": cycle,
                "witnesses": witnesses,
                "sites": sites,
            },
        )
