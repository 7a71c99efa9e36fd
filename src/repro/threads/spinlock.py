"""Names kept only for the frozen performance ledger.

The paper's applications "synchronize their threads using non-blocking
spin locks" but "none of the applications spend much time contending
for locks" (Section 3.1), and no workload here models a lock: PlyTrace
models its work-pile grab as a plain ``MemBlock``.  So there is no spin
lock and nothing observes one.

The frozen ``benchmarks/ledger/child.py`` and ``test_ledger.py`` still
import :func:`remove_lock_observer` and :func:`lock_observers` by name;
they stay as no-ops until ROADMAP 1(f) routes that import elsewhere and
deletes this module.
"""

from __future__ import annotations

from typing import List


def remove_lock_observer(observer: object) -> None:
    """Do nothing: no lock observer can be installed."""


def lock_observers() -> List[object]:
    """The installed lock observers: always none."""
    return []
