"""Alternative placement policies from the paper's contemporaries.

Section 5: "The comparison of alternative policies for NUMA page
placement is an active topic of current research [Cox & Fowler's
PLATINUM; Holliday; LaRowe & Ellis].  It is tempting to consider ever
more complex policies, but our work suggests that a simple policy can
work extremely well."

These competitors let ``benchmarks/bench_policy_comparison.py`` test that
claim head-to-head.  They are deliberately faithful to the *ideas* in
that literature rather than to any specific implementation:

* :class:`MigrationOnlyPolicy` — migrate pages to their writer but never
  replicate for readers (one half of the LaRowe & Ellis design space).
  Reads hit the owner's... no: on this two-level machine a non-owner read
  goes to global memory, so read sharing is expensive.
* :class:`ReplicationOnlyPolicy` — replicate for readers but never chase
  writers: the first ownership transfer sends the page to global memory
  (the other half of the design space; equivalent in effect to a move
  threshold of zero, implemented independently here for clarity).
* :class:`DecayPolicy` — a PLATINUM-flavoured freeze/defrost loop: pin
  like the paper's policy, but *defrost* (unpin and invalidate) pinned
  pages after a decay interval, letting placement re-form.  This is
  :class:`~repro.core.policies.reconsider.ReconsiderPolicy` under another
  framing; it is aliased here so the comparison bench reads like the
  literature it reproduces.
"""

from __future__ import annotations

from typing import Dict

from repro.core.policies.move_threshold import DEFAULT_MOVE_THRESHOLD
from repro.core.policies.reconsider import ReconsiderPolicy
from repro.core.policy import NUMAPolicy
from repro.core.state import AccessKind, PageLike, PlacementDecision

#: Default defrost interval for :class:`DecayPolicy`, simulated µs.
DEFAULT_DECAY_US = 50_000.0


class MigrationOnlyPolicy(NUMAPolicy):
    """Pages chase their writers; readers of foreign pages go global.

    A written page migrates (unlimited moves, never pinned); a processor
    reading a page it does not own gets a GLOBAL answer instead of a
    replica.  Purely private data still performs perfectly; read-shared
    data (the IMatMult inputs) loses all replication benefit.
    """

    name = "migration-only"

    def __init__(self) -> None:
        self._owner: Dict[int, int] = {}

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if kind is AccessKind.WRITE:
            return PlacementDecision.LOCAL
        owner = self._owner.get(page.page_id)
        if owner is None or owner == cpu:
            return PlacementDecision.LOCAL
        return PlacementDecision.GLOBAL

    def note_owner(self, page: PageLike, cpu: int) -> None:
        self._owner[page.page_id] = cpu

    def note_page_freed(self, page: PageLike) -> None:
        self._owner.pop(page.page_id, None)


class ReplicationOnlyPolicy(NUMAPolicy):
    """Replicate read-only pages; never move a written page.

    The first time a page would have to migrate (a write by a processor
    that is not its current owner) it is sent to global memory instead
    and stays there.  Private data and read-shared data still do well;
    any producer/consumer handoff pays global rates forever.
    """

    name = "replication-only"

    def __init__(self) -> None:
        self._owner: Dict[int, int] = {}
        self._demoted: set = set()

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if page.page_id in self._demoted:
            return PlacementDecision.GLOBAL
        if kind is AccessKind.READ:
            return PlacementDecision.LOCAL
        owner = self._owner.get(page.page_id)
        if owner is None or owner == cpu:
            return PlacementDecision.LOCAL
        self._demoted.add(page.page_id)
        return PlacementDecision.GLOBAL

    def note_owner(self, page: PageLike, cpu: int) -> None:
        self._owner[page.page_id] = cpu

    def note_page_freed(self, page: PageLike) -> None:
        self._owner.pop(page.page_id, None)
        self._demoted.discard(page.page_id)


class DecayPolicy(ReconsiderPolicy):
    """PLATINUM-style freeze/defrost: pins decay after an interval."""

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_MOVE_THRESHOLD,
        decay_us: float = DEFAULT_DECAY_US,
    ) -> None:
        super().__init__(threshold=threshold, interval_us=decay_us)
        self.name = f"decay({threshold},{decay_us:g}us)"

    def params(self) -> Dict[str, object]:
        return {
            "threshold": self._threshold,
            "decay_us": self._interval_us,
        }
