"""Pin reconsideration (Section 5 / footnote 4).

The paper's policy never reconsiders a pinning decision ("unless the
pinned page is paged out and back in"), but Section 5 suggests that "it
may in some applications be worthwhile periodically to reconsider the
decision to pin a page in global memory".  :class:`ReconsiderPolicy`
implements that future-work idea: a move-threshold policy whose pins
expire after a configurable amount of simulated time, giving the page a
fresh move budget.

The ablation ``benchmarks/bench_reconsider.py`` checks the paper's
expectation that the sample applications gain nothing from this.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.policies.move_threshold import (
    DEFAULT_MOVE_THRESHOLD,
    MoveThresholdPolicy,
)
from repro.core.state import PageLike
from repro.errors import ConfigurationError

#: Default pin lifetime, simulated microseconds.
DEFAULT_RECONSIDER_INTERVAL_US = 1_000_000.0


class ReconsiderPolicy(MoveThresholdPolicy):
    """Move-threshold policy whose pinning decisions expire.

    ``interval_us`` is how long a pin lasts; when it expires the page's
    move count resets to zero and the page becomes cacheable again.
    """

    #: Unpinning live pages is this policy's whole point; the protocol
    #: sanitizer's pin-stays-pinned check exempts policies that say so.
    reconsiders_pinning = True

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_MOVE_THRESHOLD,
        interval_us: float = DEFAULT_RECONSIDER_INTERVAL_US,
    ) -> None:
        super().__init__(threshold=threshold)
        if interval_us <= 0:
            raise ConfigurationError("reconsider interval must be positive")
        self._interval_us = interval_us
        self._now_us = 0.0
        self._pinned_at: Dict[int, float] = {}
        self._unpinned_total = 0
        self._pending_invalidations: Set[int] = set()
        self.name = f"reconsider({threshold},{interval_us:g}us)"

    @property
    def interval_us(self) -> float:
        """Lifetime of a pinning decision, simulated microseconds."""
        return self._interval_us

    @property
    def unpin_count(self) -> int:
        """How many pins have expired so far."""
        return self._unpinned_total

    def tick(self, now_us: float) -> None:
        """Advance time and expire stale pins."""
        self._now_us = now_us
        expired: Set[int] = {
            page_id
            for page_id, when in self._pinned_at.items()
            if now_us - when >= self._interval_us
        }
        for page_id in expired:
            del self._pinned_at[page_id]
            self._pinned.discard(page_id)
            self._moves.pop(page_id, None)
            self._unpinned_total += 1
            # Nobody will re-fault on a mapped global page; ask for its
            # mappings to be shot down so the fresh decision takes effect.
            self._pending_invalidations.add(page_id)

    def take_invalidations(self) -> list:
        """Hand the engine the pages whose pins just expired."""
        pending = sorted(self._pending_invalidations)
        self._pending_invalidations.clear()
        return pending

    def note_move(self, page: PageLike) -> None:
        was_pinned = self.is_pinned(page.page_id)
        super().note_move(page)
        if not was_pinned and self.is_pinned(page.page_id):
            self._pinned_at[page.page_id] = self._now_us

    def note_page_freed(self, page: PageLike) -> None:
        super().note_page_freed(page)
        self._pinned_at.pop(page.page_id, None)
        self._pending_invalidations.discard(page.page_id)
