"""The paper's NUMA policy: limit page movement, then pin (Section 2.3.2).

Every page starts cacheable: the policy answers ``LOCAL``, so read-only
pages replicate and private writable pages migrate to their writer.  Each
transfer of page ownership between processors is counted; once a page has
used up its threshold of moves (a boot-time parameter, default **four**),
the policy answers ``GLOBAL`` forever — the page is *pinned* in global
memory until it is freed.  The pinning decision is never reconsidered
(footnote 4 of the paper), except by the separate
:class:`~repro.core.policies.reconsider.ReconsiderPolicy` extension.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.policy import NUMAPolicy
from repro.core.state import AccessKind, PageLike, PlacementDecision
from repro.errors import ConfigurationError

#: The paper's boot-time default for the move threshold.
DEFAULT_MOVE_THRESHOLD = 4


class MoveThresholdPolicy(NUMAPolicy):
    """Pin a page in global memory after ``threshold`` ownership moves."""

    def __init__(self, *, threshold: int = DEFAULT_MOVE_THRESHOLD) -> None:
        if threshold < 0:
            raise ConfigurationError("move threshold cannot be negative")
        self._threshold = threshold
        self._moves: Dict[int, int] = {}
        self._pinned: Set[int] = set()
        self.name = f"move-threshold({threshold})"

    @property
    def threshold(self) -> int:
        """Moves a page may make before being pinned."""
        return self._threshold

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        """LOCAL until the page has used up its moves, then GLOBAL."""
        if page.page_id in self._pinned:
            return PlacementDecision.GLOBAL
        return PlacementDecision.LOCAL

    def note_move(self, page: PageLike) -> None:
        """Count an ownership transfer; pin once the threshold is reached."""
        count = self._moves.get(page.page_id, 0) + 1
        self._moves[page.page_id] = count
        if count > self._threshold:
            self._pinned.add(page.page_id)

    def note_degraded(self, page: PageLike) -> None:
        """Fault-injection degradation reuses the pinning mechanism.

        A page whose transfers keep failing is pinned exactly as if it
        had exhausted its move budget: GLOBAL forever, until freed.
        """
        self._pinned.add(page.page_id)

    def note_page_freed(self, page: PageLike) -> None:
        """Freed pages forget their history (pinned "until it is freed")."""
        self._moves.pop(page.page_id, None)
        self._pinned.discard(page.page_id)

    def is_pinned(self, page_id: int) -> bool:
        """Whether the policy has pinned the given page."""
        return page_id in self._pinned

    def move_count(self, page_id: int) -> int:
        """Ownership moves recorded for the given page."""
        return self._moves.get(page_id, 0)

    def move_counts(self) -> Dict[int, int]:
        """Per-page ownership-move counts (telemetry's move histogram)."""
        return dict(self._moves)

    @property
    def pinned_count(self) -> int:
        """Number of pages currently pinned."""
        return len(self._pinned)
