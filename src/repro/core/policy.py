"""The NUMA policy interface.

Section 2.3.1: "The interface provided to the NUMA manager by the NUMA
policy module consists of a single function, cache_policy, that takes a
logical page and protection and returns a location: LOCAL or GLOBAL."

We keep that single decision function, plus the notification hooks the
paper's policy needs (it counts ownership moves, and forgets a page's
history when the page is freed).  Policies are mechanism-free: they never
touch frames or mappings, only answer questions and observe events, so a
new policy is a small, isolated class — the paper's point that "we could
easily substitute another policy without modifying the NUMA manager".
A policy's parameters are its keyword-only constructor's: the registry
(:mod:`repro.core.policies.registry`) reads names, types and defaults
from that signature, so they are written down nowhere else.
"""

from __future__ import annotations

import abc

from repro.core.state import AccessKind, PageLike, PlacementDecision


class NUMAPolicy(abc.ABC):
    """Decides whether a page may be cached in local memory."""

    #: Human-readable policy name, used in reports.
    name: str = "abstract"

    @abc.abstractmethod
    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        """Answer LOCAL or GLOBAL for a request on *page* by *cpu*.

        Called by the NUMA manager on every fault, before it consults
        Tables 1-2.  Must be side-effect free with respect to the
        manager's state.
        """

    def note_move(self, page: PageLike) -> None:
        """The page's ownership just moved between processors.

        The default implementation ignores moves; the paper's
        :class:`~repro.core.policies.move_threshold.MoveThresholdPolicy`
        counts them against its boot-time threshold.
        """

    def note_owner(self, page: PageLike, cpu: int) -> None:
        """The page just became LOCAL_WRITABLE on *cpu*.

        Fired on every entry to the owned state (including re-entry by
        the same owner).  Policies that reason about *where* a page
        lives — e.g. the migration-only competitor of
        :mod:`repro.core.policies.competitors` — track it here; the
        paper's policy needs only the move count.
        """

    def note_page_freed(self, page: PageLike) -> None:
        """The page was freed; forget any per-page history.

        The paper pins a page "until it is freed" — this hook is what
        makes a reallocated page start fresh.
        """

    def note_degraded(self, page: PageLike) -> None:
        """The manager degraded *page* to pinned-global after repeated
        transfer failures (fault injection's graceful-degradation path).

        Policies that keep a pin set (the paper's
        :class:`~repro.core.policies.move_threshold.MoveThresholdPolicy`)
        should record the page as pinned so ``is_pinned`` and the
        sanitizer's pin-stays-pinned check see the degradation as the
        paper's own mechanism.  The manager independently forces GLOBAL
        decisions for degraded pages, so the default may ignore this.
        """

    def tick(self, now_us: float) -> None:
        """Periodic notification of simulated time, for aging policies.

        Called by the engine at coarse intervals.  The default does
        nothing; :class:`~repro.core.policies.reconsider.ReconsiderPolicy`
        uses it to periodically revisit pinning decisions (Section 5).
        """

    def take_invalidations(self) -> list:
        """Page ids whose mappings the policy wants dropped, then forgotten.

        A policy decision alone cannot re-place a page that nobody faults
        on; a policy that *changes its mind* (e.g. an expired pin) asks
        here for the page's mappings to be shot down so the next access
        re-faults and consults it again.  Called after :meth:`tick`.
        """
        return []

    def describe(self) -> str:
        """One-line description for run reports."""
        return self.name
