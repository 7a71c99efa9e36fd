"""Placement pragmas (Section 4.3).

The paper considered — but did not implement — pragmas "that would cause a
region of virtual memory to be marked cacheable and placed in local memory
or marked noncacheable and placed in global memory", noting "it would be
easy to do so".  It is: :class:`PragmaPolicy` honours a per-region pragma
when one is present and delegates to an underlying policy otherwise.

Workloads attach pragmas to VM objects via the layout builder; each logical
page inherits its region's pragma.
"""

from __future__ import annotations

import enum

from repro.core.policy import NUMAPolicy
from repro.core.state import AccessKind, PageLike, PlacementDecision


class Pragma(enum.Enum):
    """Application-supplied placement advice for a region."""

    #: Keep the region cacheable in local memory regardless of movement.
    CACHEABLE = "cacheable"
    #: Place the region directly in global memory; never cache it.
    NONCACHEABLE = "noncacheable"
    #: Home the region on its first toucher; other processors reference
    #: it remotely (the Section 4.4 extension, honoured by
    #: :class:`~repro.core.policies.remote.HomeNodePolicy`).
    REMOTE = "remote"


class _WrappingPolicy(NUMAPolicy):
    """A policy layered over a *base* policy, inert where it has no opinion.

    Every :class:`NUMAPolicy` hook but the two a subclass supplies
    (``cache_policy``, ``note_move``) goes to ``base``, and so does every
    attribute the wrapper does not define: the duck-typed probes of the
    harness, sanitizer and telemetry (``bind_machine``, ``is_pinned``, ...).
    """

    def __init__(self, base: NUMAPolicy) -> None:
        self.base = base
        # The class-level name says what the wrapper adds.
        self.name = f"{self.name}+{base.name}"

    def params(self) -> dict:
        return {"base": self.base.name}

    def __getattr__(self, attribute: str) -> object:
        # Reached only for names the wrapper does not define; private
        # ones (the dunders copy and pickle probe) are never the base's.
        if attribute.startswith("_"):
            raise AttributeError(attribute)
        return getattr(self.base, attribute)

    def note_owner(self, page: PageLike, cpu: int) -> None:
        self.base.note_owner(page, cpu)

    def note_page_freed(self, page: PageLike) -> None:
        self.base.note_page_freed(page)

    def note_degraded(self, page: PageLike) -> None:
        self.base.note_degraded(page)

    def tick(self, now_us: float) -> None:
        self.base.tick(now_us)

    def take_invalidations(self) -> list:
        return self.base.take_invalidations()


class PragmaPolicy(_WrappingPolicy):
    """Honour region pragmas, otherwise defer to a base policy."""

    name = "pragma"

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        pragma = getattr(page, "pragma", None)
        if pragma is Pragma.CACHEABLE:
            return PlacementDecision.LOCAL
        if pragma is Pragma.NONCACHEABLE:
            return PlacementDecision.GLOBAL
        return self.base.cache_policy(page, kind, cpu)

    def note_move(self, page: PageLike) -> None:
        # Pragma'd pages do not consume the base policy's move budget for
        # pages it will never be asked about; unpragma'd moves pass through.
        if getattr(page, "pragma", None) is None:
            self.base.note_move(page)
