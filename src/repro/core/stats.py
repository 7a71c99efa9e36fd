"""Counters kept by the NUMA manager.

These are the numbers behind the paper's Table 4 discussion: how often
pages moved, were replicated, were pinned, and how much copying the
protocol did.  They are pure bookkeeping — no simulated time is charged
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.core.state import AccessKind


@dataclass
class NUMAStats:
    """Action and event counts for one run."""

    #: Faults handled, by access kind.
    faults: Dict[AccessKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in AccessKind}
    )
    #: Pages zero-filled on first touch.
    zero_fills: int = 0
    #: The subset of zero-fills that wrote global memory (bus traffic).
    global_zero_fills: int = 0
    #: Page copies from global into a local memory.
    copies_to_local: int = 0
    #: Page copies from a local memory back to global (syncs).
    syncs: int = 0
    #: Local copies dropped (freed) without syncing.
    flushes: int = 0
    #: Mappings to the global copy dropped.
    unmaps: int = 0
    #: Ownership transfers between processors.
    moves: int = 0
    #: Remote mappings established (the Section 4.4 extension); zero
    #: under the paper's policies, which never answer REMOTE.
    remote_mappings: int = 0
    #: LOCAL decisions downgraded to GLOBAL because the requesting
    #: processor's local memory had no free frame.  Zero in all the
    #: paper-scale experiments; reported so that a misconfigured machine
    #: is visible rather than silently slow.
    local_memory_fallbacks: int = 0
    #: Local copies evicted to make room for another page's copy.
    evictions: int = 0
    #: Pages freed back to the pool.
    pages_freed: int = 0
    #: Lazy free cleanups completed (pmap_free_page_sync work).
    free_syncs: int = 0
    #: Block-transfer retries performed by the fault-injection envelope.
    #: Zero unless a :mod:`repro.faults` injector is wired in.
    transfer_retries: int = 0
    #: Pages degraded to pinned-global after the retry envelope gave up.
    degraded_pins: int = 0
    #: Local frames taken offline by injected permanent failures.
    frames_offlined: int = 0

    def total_faults(self) -> int:
        """All faults handled."""
        return sum(self.faults.values())

    def total_page_copies(self) -> int:
        """All whole-page copies performed (either direction)."""
        return self.copies_to_local + self.syncs

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "NUMAStats":
        """Rebuild counters from an :meth:`as_dict` view.

        The experiment cache stores run results as JSON; this is the
        inverse that makes ``as_dict`` a lossless round trip.
        """
        stats = cls()
        stats.faults = {
            AccessKind.READ: int(data.get("read_faults", 0)),
            AccessKind.WRITE: int(data.get("write_faults", 0)),
        }
        for spec in fields(cls):
            if spec.name == "faults":
                continue
            setattr(stats, spec.name, int(data.get(spec.name, 0)))
        return stats

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view for reports."""
        return {
            "read_faults": self.faults[AccessKind.READ],
            "write_faults": self.faults[AccessKind.WRITE],
            "zero_fills": self.zero_fills,
            "global_zero_fills": self.global_zero_fills,
            "copies_to_local": self.copies_to_local,
            "syncs": self.syncs,
            "flushes": self.flushes,
            "unmaps": self.unmaps,
            "moves": self.moves,
            "remote_mappings": self.remote_mappings,
            "local_memory_fallbacks": self.local_memory_fallbacks,
            "evictions": self.evictions,
            "pages_freed": self.pages_freed,
            "free_syncs": self.free_syncs,
            "transfer_retries": self.transfer_retries,
            "degraded_pins": self.degraded_pins,
            "frames_offlined": self.frames_offlined,
        }
