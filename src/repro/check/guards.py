"""The guard vocabulary for the protocol's shared mutable state.

The NUMA protocol keeps its racy state in three places — directory
entries (``core/directory.py``), the per-CPU MMU translation tables
(``machine/mmu.py``) and the software TLBs (``machine/tlb.py``) — and
relies on *discipline*, not mutual exclusion hardware, to keep them
coherent: directory fields are rewritten only by the directory's own
monitor methods or under the ``NUMAManager._transition`` funnel, and
MMU/TLB tables only by their owning class or through the CPU's
shootdown funnel.

This module names that discipline and parses nothing: which fields are
shared and who declares them (:data:`SHARED_FIELDS`), which guards
exist and how a site is classified (:func:`classify_guard`), and the
records an inference produces (:class:`MutationSite`,
:class:`GuardModel`, whose majority vote is the inferred discipline).
The static pass in :mod:`repro.check.lint` finds the mutation sites —
``collect_sites``, ``infer_guards`` and rule ``RN008``
(``shared-guard``), which reports every site no guard covers, live
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

# -- the guard vocabulary ----------------------------------------------------

#: Mutation happens in a module whose every mutation is serialized by the
#: ``NUMAManager._transition`` funnel (the action executor runs inside it).
GUARD_FUNNEL = "funnel"
#: Mutation happens in the module that declares the field — a monitor
#: method of the owning class.
GUARD_MONITOR = "monitor"
#: Mutation is lexically inside a ``SpinLock`` acquire/release region.
GUARD_SPINLOCK = "spinlock"
#: No guard covers the site.
GUARD_NONE = "unguarded"

#: Precedence used to break ties when inferring the majority discipline.
_GUARD_RANK = {
    GUARD_FUNNEL: 0,
    GUARD_MONITOR: 1,
    GUARD_SPINLOCK: 2,
    GUARD_NONE: 3,
}

#: Shared protocol fields, mapped to the module(s) that declare them and
#: whose methods count as the field's monitor.
SHARED_FIELDS: Dict[str, Tuple[str, ...]] = {
    # DirectoryEntry / PageDirectory (core/directory.py)
    "local_copies": ("core/directory.py",),
    "mappings": ("core/directory.py",),
    "move_count": ("core/directory.py",),
    "last_owner": ("core/directory.py",),
    "global_frame": ("core/directory.py",),
    "state": ("core/directory.py",),
    "owner": ("core/directory.py",),
    # SoftwareTLB cache (machine/tlb.py); PageDirectory reuses the name.
    "_entries": ("machine/tlb.py", "core/directory.py"),
    # MMU translation tables (machine/mmu.py)
    "_by_vpage": ("machine/mmu.py",),
    "_by_frame": ("machine/mmu.py",),
}

#: ``state``/``owner``/``mappings`` are common attribute names (thread
#: state, lock owner, an exception's mappings detail, ...).  Outside the
#: protocol modules they only count as shared fields when the receiver
#: looks like a directory entry.
ENTRY_GATED_FIELDS = frozenset({"state", "owner", "mappings"})

#: Modules whose mutations are serialized by the transition funnel: the
#: manager itself, the Tables 1-2 transcription it consults, and the
#: action executor it drives.
FUNNEL_MODULES: Tuple[str, ...] = (
    "core/numa_manager.py",
    "core/transitions.py",
    "core/actions.py",
)

#: Files whose sites do not vote on the discipline: the race fixtures
#: plant deliberate violations (suppressed line by line for lint), and
#: counting them as deviants would make the clean tree's inference
#: summary read as dirty.
GUARD_SCAN_EXCLUDE: Tuple[str, ...] = ("check/fixtures.py",)

#: Container methods that mutate their receiver.
MUTATING_METHODS = frozenset(
    {
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
    }
)


@dataclass(frozen=True)
class MutationSite:
    """One place in the source that mutates a shared protocol field."""

    field: str
    path: str
    line: int
    col: int
    function: str
    guard: str
    #: What the mutation syntactically is: ``assign``, ``augassign``,
    #: ``item-assign``, ``delete`` or the mutating method name.
    kind: str

    def format(self) -> str:
        """``path:line`` rendering used in reports and rule messages."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.field} "
            f"{self.kind} in {self.function} [{self.guard}]"
        )

    def as_record(self) -> Dict[str, object]:
        """Flat record for ``--json`` sinks."""
        return {
            "t": "guard_site",
            "field": self.field,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "guard": self.guard,
            "kind": self.kind,
        }


@dataclass
class GuardModel:
    """The inferred guard discipline over a set of analyzed files."""

    sites: List[MutationSite] = field(default_factory=list)
    files_checked: int = 0

    def discipline(self) -> Dict[str, str]:
        """Majority guard per field (ties break toward stronger guards)."""
        by_field: Dict[str, Dict[str, int]] = {}
        for site in self.sites:
            if site.guard is GUARD_NONE or site.guard == GUARD_NONE:
                continue  # deviants don't vote on the discipline
            by_field.setdefault(site.field, {})
            counts = by_field[site.field]
            counts[site.guard] = counts.get(site.guard, 0) + 1
        inferred: Dict[str, str] = {}
        for fname in sorted(by_field):
            counts = by_field[fname]
            best = sorted(
                counts.items(), key=lambda kv: (-kv[1], _GUARD_RANK[kv[0]])
            )[0][0]
            inferred[fname] = best
        return inferred

    def deviants(self) -> List[MutationSite]:
        """Sites not covered by any guard — RN008's raw material."""
        return [s for s in self.sites if s.guard == GUARD_NONE]

    @property
    def ok(self) -> bool:
        """Whether every mutation site is covered by some guard."""
        return not self.deviants()

    def format(self) -> str:
        """Human-readable inference summary."""
        lines = [
            f"guard inference: {len(self.sites)} mutation site(s) across "
            f"{self.files_checked} file(s)"
        ]
        discipline = self.discipline()
        for fname in sorted(
            set(discipline) | {s.field for s in self.sites}
        ):
            covered = [
                s for s in self.sites
                if s.field == fname and s.guard != GUARD_NONE
            ]
            guard = discipline.get(fname, GUARD_NONE)
            lines.append(
                f"  {fname}: guard={guard} sites={len(covered)}"
            )
        deviants = self.deviants()
        if deviants:
            lines.append(f"  {len(deviants)} unguarded site(s):")
            lines.extend(f"    {s.format()}" for s in deviants)
        else:
            lines.append("  no unguarded sites")
        return "\n".join(lines)

    def as_records(self) -> List[Dict[str, object]]:
        """Flat records: one per site plus a summary."""
        records: List[Dict[str, object]] = [
            s.as_record() for s in self.sites
        ]
        records.append(
            {
                "t": "guard_summary",
                "sites": len(self.sites),
                "unguarded": len(self.deviants()),
                "files_checked": self.files_checked,
                "discipline": self.discipline(),
            }
        )
        return records


def classify_guard(
    relpath: str,
    fname: str,
    line: int,
    lock_spans: Sequence[Tuple[int, int]],
) -> str:
    """Which guard covers a mutation of *fname* at *relpath*:*line*."""
    if relpath in FUNNEL_MODULES:
        return GUARD_FUNNEL
    if relpath in SHARED_FIELDS.get(fname, ()):
        return GUARD_MONITOR
    for start, end in lock_spans:
        if start <= line <= end:
            return GUARD_SPINLOCK
    return GUARD_NONE
