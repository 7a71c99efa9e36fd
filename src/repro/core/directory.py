"""Per-page directory for the ownership protocol.

The NUMA manager keeps one :class:`DirectoryEntry` per logical page,
recording the protocol state, the owner (for ``LOCAL_WRITABLE`` pages),
which processors hold local copies (for ``READ_ONLY`` pages), where each
processor currently has the page mapped, and the running count of
ownership moves the policy uses for its pinning decision.

This is the directory of the Li & Hudak-style protocol the paper adopts;
:meth:`DirectoryEntry.check_invariants` asserts the state/copy/owner
consistency conditions that define the three states, and the property
tests drive random request sequences against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ProtocolError
from repro.machine.memory import Frame, FrameKind
from repro.machine.protection import _NORMALIZED, Protection
from repro.core.state import PageState

#: Fields of this module's classes that the static pass
#: (``repro.check.lint``) treats as shared protocol state: mutations
#: outside the transition funnel or this module's own methods are RN008
#: findings.  Keep in sync with its guard vocabulary,
#: ``repro.check.guards.SHARED_FIELDS`` (a test cross-checks the two).
GUARDED_FIELDS: Tuple[str, ...] = (
    "state",
    "owner",
    "local_copies",
    "mappings",
    "move_count",
    "last_owner",
    "global_frame",
    "_entries",
)


@dataclass(slots=True)
class Mapping:
    """Where one processor has the page mapped, and with what rights."""

    vpage: int
    protection: Protection
    frame: Frame

    def as_record(self) -> Dict[str, object]:
        """Flat snapshot for structured :class:`ProtocolError` fields."""
        return {
            "vpage": self.vpage,
            "protection": repr(self.protection),
            "frame": repr(self.frame),
        }


@dataclass
class DirectoryEntry:
    """Protocol bookkeeping for one logical page."""

    page_id: int
    global_frame: Frame
    state: PageState = PageState.UNTOUCHED
    #: Owning processor while LOCAL_WRITABLE, else ``None``.
    owner: Optional[int] = None
    #: Local cache frames, by processor.  Non-empty only for READ_ONLY
    #: (any number) and LOCAL_WRITABLE (exactly the owner's).
    local_copies: Dict[int, Frame] = field(default_factory=dict)
    #: Current virtual mappings, by processor.
    mappings: Dict[int, Mapping] = field(default_factory=dict)
    #: The last processor that held the page LOCAL_WRITABLE.  Used to
    #: detect ownership transfers: entering LOCAL_WRITABLE on a different
    #: processor than ``last_owner`` counts as one move.
    last_owner: Optional[int] = None
    #: Ownership moves so far (reported to the policy, which decides
    #: whether to pin; the count itself is mechanism, not policy).
    move_count: int = 0

    def frame_for(self, cpu: int) -> Frame:
        """The frame *cpu* should access for this page, given the state."""
        local = self.local_copies.get(cpu)
        if local is not None:
            return local
        return self.global_frame

    def authoritative_frame(self) -> Frame:
        """The frame holding the current page contents."""
        if self.state is PageState.LOCAL_WRITABLE:
            if self.owner is None:
                raise self._invariant_error("LOCAL_WRITABLE without owner")
            return self.local_copies[self.owner]
        return self.global_frame

    def record_mapping(
        self, cpu: int, vpage: int, protection: Protection, frame: Frame
    ) -> None:
        """Note that *cpu* now maps the page at *vpage*."""
        self.mappings[cpu] = Mapping(vpage, _NORMALIZED[protection], frame)

    def drop_mapping(self, cpu: int) -> Optional[Mapping]:
        """Forget *cpu*'s mapping, returning it if present."""
        return self.mappings.pop(cpu, None)

    def note_ownership(self, cpu: int) -> bool:
        """Record that *cpu* has become the page's owner.

        Returns ``True`` when this constitutes an ownership *move* — the
        page previously belonged to a different processor — which is what
        the paper's policy counts against its threshold.
        """
        moved = self.last_owner is not None and self.last_owner != cpu
        if moved:
            self.move_count += 1
        self.owner = cpu
        self.last_owner = cpu
        return moved

    def _invariant_error(self, message: str) -> ProtocolError:
        """A :class:`ProtocolError` carrying this entry's full shape.

        Every invariant failure includes the page id, the complete
        per-processor mapping table, and the state/owner/copy-holder
        snapshot, so the sanitizer and tests can assert on structured
        fields rather than message text.
        """
        return ProtocolError(
            f"page {self.page_id}: {message}",
            page_id=self.page_id,
            mappings={
                cpu: mapping.as_record()
                for cpu, mapping in self.mappings.items()
            },
            details={
                "state": self.state.value,
                "owner": self.owner,
                "last_owner": self.last_owner,
                "move_count": self.move_count,
                "copy_holders": sorted(self.local_copies),
                "global_frame": repr(self.global_frame),
            },
        )

    def check_invariants(self) -> None:
        """Assert the state-definition invariants from Section 2.3.1.

        Raises :class:`ProtocolError` on violation.  Called after every
        request in tests (and cheaply enough to leave on in normal runs).
        """
        if self.global_frame.kind is not FrameKind.GLOBAL:
            raise self._invariant_error(
                f"global frame is {self.global_frame}"
            )
        for cpu, frame in self.local_copies.items():
            if frame.kind is not FrameKind.LOCAL or frame.node != cpu:
                raise self._invariant_error(
                    f"copy for cpu {cpu} is {frame}"
                )
        if self.state is PageState.UNTOUCHED:
            if self.local_copies or self.mappings or self.owner is not None:
                raise self._invariant_error(
                    "untouched page has cache state"
                )
        elif self.state is PageState.READ_ONLY:
            if self.owner is not None:
                raise self._invariant_error("READ_ONLY page has an owner")
            if not self.local_copies:
                raise self._invariant_error("READ_ONLY page with no copies")
            for cpu, mapping in self.mappings.items():
                if mapping.protection.writable:
                    raise self._invariant_error(
                        f"writable mapping on cpu {cpu} while READ_ONLY"
                    )
                if cpu not in self.local_copies:
                    raise self._invariant_error(
                        f"cpu {cpu} maps READ_ONLY page without a local copy"
                    )
                if mapping.frame != self.local_copies[cpu]:
                    raise self._invariant_error(
                        f"cpu {cpu} maps {mapping.frame}, "
                        f"copy is {self.local_copies[cpu]}"
                    )
        elif self.state is PageState.LOCAL_WRITABLE:
            if self.owner is None:
                raise self._invariant_error(
                    "LOCAL_WRITABLE page has no owner"
                )
            if set(self.local_copies) != {self.owner}:
                raise self._invariant_error(
                    f"LOCAL_WRITABLE copies on "
                    f"{sorted(self.local_copies)}, owner {self.owner}"
                )
            home_frame = self.local_copies[self.owner]
            for cpu, mapping in self.mappings.items():
                if cpu == self.owner:
                    continue
                # Non-owner mappings are legal only as *remote* mappings
                # of the owner's frame (the Section 4.4 extension):
                # same physical memory, so no consistency question.
                if mapping.frame != home_frame:
                    raise self._invariant_error(
                        f"cpu {cpu} maps {mapping.frame} while "
                        f"LOCAL_WRITABLE on {self.owner}"
                    )
        elif self.state is PageState.GLOBAL_WRITABLE:
            if self.owner is not None:
                raise self._invariant_error(
                    "GLOBAL_WRITABLE page has an owner"
                )
            if self.local_copies:
                raise self._invariant_error(
                    f"GLOBAL_WRITABLE page has local copies on "
                    f"{sorted(self.local_copies)}"
                )
            for cpu, mapping in self.mappings.items():
                if mapping.frame != self.global_frame:
                    raise self._invariant_error(
                        f"cpu {cpu} maps {mapping.frame} while "
                        "GLOBAL_WRITABLE"
                    )


class PageDirectory:
    """All directory entries, keyed by page id."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def add(self, page_id: int, global_frame: Frame) -> DirectoryEntry:
        """Create the entry for a newly allocated logical page."""
        if page_id in self._entries:
            raise ProtocolError(f"page {page_id} already in directory")
        entry = DirectoryEntry(page_id=page_id, global_frame=global_frame)
        self._entries[page_id] = entry
        return entry

    def get(self, page_id: int) -> DirectoryEntry:
        """Return the entry for *page_id* (which must exist)."""
        try:
            return self._entries[page_id]
        except KeyError:
            raise ProtocolError(f"page {page_id} not in directory") from None

    def remove(self, page_id: int) -> DirectoryEntry:
        """Delete and return the entry for a freed page."""
        try:
            return self._entries.pop(page_id)
        except KeyError:
            raise ProtocolError(f"page {page_id} not in directory") from None

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        """Iterate over all entries (order unspecified)."""
        return iter(list(self._entries.values()))

    def find_by_local_frame(self, frame: Frame) -> Optional[DirectoryEntry]:
        """The entry holding *frame* as a local copy, if any.

        Used by the frame-failure recovery path to locate the page
        resident in a failing frame.  A frame belongs to at most one
        entry (frames are never shared between pages), so the first hit
        is the only hit.
        """
        for entry in self._entries.values():
            if frame in entry.local_copies.values():
                return entry
        return None
