"""Declarative encoding of the paper's Tables 1 and 2.

Every cell of "NUMA Manager Actions for Read Requests" (Table 1) and
"... for Write Requests" (Table 2) is represented as an
:class:`ActionSpec`: the cleanup steps that erase previous cache state,
whether the page is then copied into the requesting processor's local
memory, and the resulting page state.

``repro-numa tables12`` renders these structures back into the paper's
table layout — Tables 1-2 are generated *from* the implementation — and
``repro-numa modelcheck`` checks every cell against the paper's text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.state import AccessKind, PageState, PlacementDecision
from repro.errors import ProtocolError


class Cleanup(enum.Enum):
    """The cleanup steps named in the tables' top lines.

    * ``SYNC_FLUSH_OWN`` — copy the requesting processor's local copy back
      to global memory, then drop it.
    * ``SYNC_FLUSH_OTHER`` — same, for the (single) owning processor that
      is not the requester.
    * ``FLUSH_ALL`` / ``FLUSH_OTHER`` — drop local copies and their
      mappings without syncing (used only when the global copy is already
      current, i.e. for READ_ONLY pages).
    * ``UNMAP_ALL`` — drop virtual mappings to the global copy (used only
      for GLOBAL_WRITABLE pages; there are no local copies to free).
    * ``NONE`` — nothing to clean up.
    """

    NONE = "no action"
    SYNC_FLUSH_OWN = "sync&flush own"
    SYNC_FLUSH_OTHER = "sync&flush other"
    FLUSH_ALL = "flush all"
    FLUSH_OTHER = "flush other"
    UNMAP_ALL = "unmap all"

    __hash__ = object.__hash__  # identity hash: see PageState


@dataclass(frozen=True)
class ActionSpec:
    """One table cell: cleanup, optional copy-to-local, new state."""

    cleanup: Cleanup
    copy_to_local: bool
    new_state: PageState

    def describe(self) -> Tuple[str, str, str]:
        """The three lines of the table cell, as printed in the paper."""
        copy_line = "copy to local" if self.copy_to_local else "-"
        return (self.cleanup.value, copy_line, self.new_state.value)


class StateKey(enum.Enum):
    """Column key: the page's state relative to the requesting processor.

    ``LOCAL_WRITABLE`` needs splitting into "on own node" vs "on other
    node", exactly as the paper's column headings do.
    """

    READ_ONLY = "Read-Only"
    GLOBAL_WRITABLE = "Global-Writable"
    LOCAL_WRITABLE_OWN = "Local-Writable on own node"
    LOCAL_WRITABLE_OTHER = "Local-Writable on other node"

    __hash__ = object.__hash__  # identity hash: see PageState


def classify_state(state: PageState, owner: int | None, cpu: int) -> StateKey:
    """Map a directory state plus requester to the table column."""
    if state is PageState.READ_ONLY:
        return StateKey.READ_ONLY
    if state is PageState.GLOBAL_WRITABLE:
        return StateKey.GLOBAL_WRITABLE
    if state is PageState.LOCAL_WRITABLE:
        if owner is None:
            raise ProtocolError("LOCAL_WRITABLE page with no owner")
        if owner == cpu:
            return StateKey.LOCAL_WRITABLE_OWN
        return StateKey.LOCAL_WRITABLE_OTHER
    raise ProtocolError(f"state {state} has no table column (untouched pages "
                        "take the first-touch path, not the tables)")


_RO = PageState.READ_ONLY
_LW = PageState.LOCAL_WRITABLE
_GW = PageState.GLOBAL_WRITABLE

#: Table 1 — NUMA Manager Actions for Read Requests.
READ_TABLE: Dict[Tuple[PlacementDecision, StateKey], ActionSpec] = {
    (PlacementDecision.LOCAL, StateKey.READ_ONLY): ActionSpec(
        Cleanup.NONE, True, _RO
    ),
    (PlacementDecision.LOCAL, StateKey.GLOBAL_WRITABLE): ActionSpec(
        Cleanup.UNMAP_ALL, True, _RO
    ),
    (PlacementDecision.LOCAL, StateKey.LOCAL_WRITABLE_OWN): ActionSpec(
        Cleanup.NONE, False, _LW
    ),
    (PlacementDecision.LOCAL, StateKey.LOCAL_WRITABLE_OTHER): ActionSpec(
        Cleanup.SYNC_FLUSH_OTHER, True, _RO
    ),
    (PlacementDecision.GLOBAL, StateKey.READ_ONLY): ActionSpec(
        Cleanup.FLUSH_ALL, False, _GW
    ),
    (PlacementDecision.GLOBAL, StateKey.GLOBAL_WRITABLE): ActionSpec(
        Cleanup.NONE, False, _GW
    ),
    (PlacementDecision.GLOBAL, StateKey.LOCAL_WRITABLE_OWN): ActionSpec(
        Cleanup.SYNC_FLUSH_OWN, False, _GW
    ),
    (PlacementDecision.GLOBAL, StateKey.LOCAL_WRITABLE_OTHER): ActionSpec(
        Cleanup.SYNC_FLUSH_OTHER, False, _GW
    ),
}

#: Table 2 — NUMA Manager Actions for Write Requests.
WRITE_TABLE: Dict[Tuple[PlacementDecision, StateKey], ActionSpec] = {
    (PlacementDecision.LOCAL, StateKey.READ_ONLY): ActionSpec(
        Cleanup.FLUSH_OTHER, True, _LW
    ),
    (PlacementDecision.LOCAL, StateKey.GLOBAL_WRITABLE): ActionSpec(
        Cleanup.UNMAP_ALL, True, _LW
    ),
    (PlacementDecision.LOCAL, StateKey.LOCAL_WRITABLE_OWN): ActionSpec(
        Cleanup.NONE, False, _LW
    ),
    (PlacementDecision.LOCAL, StateKey.LOCAL_WRITABLE_OTHER): ActionSpec(
        Cleanup.SYNC_FLUSH_OTHER, True, _LW
    ),
    (PlacementDecision.GLOBAL, StateKey.READ_ONLY): ActionSpec(
        Cleanup.FLUSH_ALL, False, _GW
    ),
    (PlacementDecision.GLOBAL, StateKey.GLOBAL_WRITABLE): ActionSpec(
        Cleanup.NONE, False, _GW
    ),
    (PlacementDecision.GLOBAL, StateKey.LOCAL_WRITABLE_OWN): ActionSpec(
        Cleanup.SYNC_FLUSH_OWN, False, _GW
    ),
    (PlacementDecision.GLOBAL, StateKey.LOCAL_WRITABLE_OTHER): ActionSpec(
        Cleanup.SYNC_FLUSH_OTHER, False, _GW
    ),
}


def lookup(
    kind: AccessKind, decision: PlacementDecision, state_key: StateKey
) -> ActionSpec:
    """Return the table cell for a request.

    This is the single point the NUMA manager consults to decide what to
    do; there is deliberately no other transition logic.
    """
    table = READ_TABLE if kind is AccessKind.READ else WRITE_TABLE
    return table[(decision, state_key)]


def first_touch_spec(
    kind: AccessKind, decision: PlacementDecision
) -> ActionSpec:
    """Transition for the first touch of a zero-fill page.

    Not part of the paper's tables: Mach resolves the initial zero-fill
    fault before ``pmap_enter``, and the paper's pmap layer lazily
    zero-fills into the memory the policy chose (Section 2.3.1, last
    paragraph).  There is nothing to clean up and nothing to copy — the
    zero-fill itself creates the first copy.
    """
    if decision is PlacementDecision.GLOBAL:
        return ActionSpec(Cleanup.NONE, False, _GW)
    if kind is AccessKind.READ:
        return ActionSpec(Cleanup.NONE, True, _RO)
    return ActionSpec(Cleanup.NONE, True, _LW)
