"""Remote-reference policy (the Section 4.4 extension).

"On the ACE, remote references may be appropriate for data used
frequently by one processor and infrequently by others. ... Unfortunately,
we see no reasonable way of determining this location without pragmas or
special-purpose hardware.  In practice we expect that machines with only
local memory will rely on pragmas for page location."

:class:`HomeNodePolicy` is exactly that pragma-driven design: regions
marked :data:`~repro.core.policies.pragma.Pragma.REMOTE` are placed in
the local memory of the first processor to touch them (the *home*), and
every other processor references them remotely across the bus instead of
stealing ownership or forcing the page into global memory.  Whether that
is profitable depends on how lopsided the reference pattern is — the
paper's open question, answered quantitatively by
``benchmarks/bench_remote.py``.
"""

from __future__ import annotations

from repro.core.policies.pragma import Pragma, _WrappingPolicy
from repro.core.state import AccessKind, PageLike, PlacementDecision


class HomeNodePolicy(_WrappingPolicy):
    """Pragma-driven remote placement over a base policy.

    Pages whose region carries ``Pragma.REMOTE`` answer ``REMOTE``: the
    NUMA manager maps non-home processors onto the home's frame directly
    (and makes the first toucher the home).  Everything else defers to
    the base policy, so a workload can mix automatic and remote-placed
    regions freely.
    """

    name = "home-node"

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if getattr(page, "pragma", None) is Pragma.REMOTE:
            return PlacementDecision.REMOTE
        return self.base.cache_policy(page, kind, cpu)

    def note_move(self, page: PageLike) -> None:
        if getattr(page, "pragma", None) is not Pragma.REMOTE:
            self.base.note_move(page)
