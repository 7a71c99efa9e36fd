"""Wall-clock profiling spans around simulator phases.

The simulated-time results never depend on these: spans measure the
*simulator's* wall-clock cost (``time.perf_counter``), which is what the
ROADMAP's "make a hot path measurably faster" loop needs.  The engine
calls :meth:`PhaseProfiler.add` directly on its hot paths (cheaper than
a context manager there), its reference-batch spans summed per round, so
``calls``/``total_s``/``max_s`` mean what per-span adds would give.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class PhaseStat:
    """Aggregate wall-clock cost of one named phase."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean seconds per call (0 when never called)."""
        if self.calls == 0:
            return 0.0
        return self.total_s / self.calls

    def as_record(self) -> Dict[str, object]:
        """Flat record for exporters."""
        return {
            "t": "phase",
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "max_s": self.max_s,
        }


class PhaseProfiler:
    """Accumulates wall-clock time per named phase."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStat] = {}

    def add(self, name: str, seconds: float, calls: int = 1,
            longest: Optional[float] = None) -> None:
        """Charge *seconds* of wall-clock time to phase *name*: one span,
        or *calls* spans the caller summed, the longest *longest*."""
        stat = self._phases.get(name)
        if stat is None:
            stat = PhaseStat(name)
            self._phases[name] = stat
        stat.calls += calls
        stat.total_s += seconds
        if longest is None:
            longest = seconds
        if longest > stat.max_s:
            stat.max_s = longest

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and charge it to phase *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def phase(self, name: str) -> PhaseStat:
        """The stat for *name* (created empty if never charged)."""
        stat = self._phases.get(name)
        if stat is None:
            stat = PhaseStat(name)
            self._phases[name] = stat
        return stat

    @property
    def phases(self) -> List[PhaseStat]:
        """All phases, most expensive first."""
        return sorted(
            self._phases.values(), key=lambda s: s.total_s, reverse=True
        )

    def as_records(self) -> List[Dict[str, object]]:
        """Flat records for exporters, most expensive phase first."""
        return [stat.as_record() for stat in self.phases]

    def format(self) -> str:
        """Human-readable profile table, most expensive phase first."""
        lines = ["phase profile (wall-clock):"]
        if not self._phases:
            lines.append("  (no phases recorded)")
            return "\n".join(lines)
        lines.append(
            f"  {'phase':<18s} {'calls':>9s} {'total':>10s} "
            f"{'mean':>10s} {'max':>10s}"
        )
        for stat in self.phases:
            lines.append(
                f"  {stat.name:<18s} {stat.calls:>9d} "
                f"{stat.total_s * 1e3:>8.2f}ms "
                f"{stat.mean_s * 1e6:>8.2f}µs "
                f"{stat.max_s * 1e6:>8.2f}µs"
            )
        return "\n".join(lines)
