"""Per-CPU software TLB: the simulator's reference fast path.

The ACE's Rosetta MMU resolves every reference in hardware; our
simulated :class:`~repro.machine.mmu.MMU` resolves them in Python, and
that dictionary-plus-protection-check stack on *every* reference block
used to dominate run time.  :class:`SoftwareTLB` sits in front of the
MMU and caches fully resolved translations — virtual page → frame,
protection, and the *latency class* (the
:class:`~repro.machine.timing.MemoryLocation` plus the per-word fetch
and store costs for that location from the referencing processor) — so
the engine can charge a whole reference block off one cached entry.
The cached costs come from :meth:`~repro.machine.timing.TimingModel.ref_costs`,
so on multi-level machines a same-socket remote frame is cached at
socket speed while keeping its ``REMOTE`` label for the counters.

Like a hardware TLB, the cache is only as good as its invalidation.
Every MMU mutation funnels through the owning
:class:`~repro.machine.cpu.CPU`'s ``enter_translation`` /
``remove_translation`` / ``protect_translation`` methods, which pair the
MMU change with a :meth:`SoftwareTLB.invalidate`; a cross-processor
invalidation (the acting CPU differs from the TLB's) is counted as a
*shootdown*, mirroring the interprocessor interrupt a real kernel would
send.  The ``check/`` sanitizer sweeps every cached entry against the
live MMU and directory state, so a stale entry can never survive
unnoticed.

The TLB never charges simulated time: shootdown costs are billed by the
protocol layer (``shootdown_us`` in :mod:`repro.core.actions`) exactly
as before.  Caching only removes simulator overhead — Table 3/4 numbers
are bit-identical with the TLB on or off.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.machine.memory import Frame
from repro.machine.protection import Protection
from repro.machine.timing import MemoryLocation

#: Default translation capacity.  The Rosetta-C held 512 hardware TLB
#: slots; our workloads touch far fewer distinct pages per phase, and a
#: smaller cache keeps the FIFO eviction path exercised in tests.
DEFAULT_TLB_ENTRIES = 256


class TLBEntry:
    """One cached translation with its precomputed latency class.

    ``fetch_us``/``store_us`` are the per-word reference costs *from the
    owning processor* to ``location``; caching them lets the engine
    charge ``reads * fetch_us + writes * store_us`` without touching the
    timing model on the hot path.  ``writable`` mirrors
    ``protection.writable`` as a plain attribute for the same reason, and
    ``writable_data`` caches whether the page belongs to a writable data
    region (the engine's α accounting), sparing the per-block region
    lookup.  ``page_id`` is the logical page behind the translation, for
    reference events: ``None`` until the engine resolves it on the first
    *observed* hit (a fill looks nothing up, a bare run never asks), and
    good for the entry's whole life: a vpage names another page only
    after the old one is freed, freeing removes the mapping, and the
    invalidation funnel drops the entry with it.
    """

    __slots__ = (
        "vpage",
        "frame",
        "protection",
        "writable",
        "location",
        "fetch_us",
        "store_us",
        "writable_data",
        "page_id",
    )

    def __init__(
        self,
        vpage: int,
        frame: Frame,
        protection: Protection,
        location: MemoryLocation,
        fetch_us: float,
        store_us: float,
        writable_data: bool = False,
    ) -> None:
        self.vpage = vpage
        self.frame = frame
        self.protection = protection
        self.writable = protection.writable
        self.location = location
        self.fetch_us = fetch_us
        self.store_us = store_us
        self.writable_data = writable_data
        self.page_id: Optional[int] = None


class SoftwareTLB:
    """Translation cache for a single processor, FIFO-evicted.

    Counters:

    ``hits`` / ``misses``
        Lookup outcomes, for the per-round hit-ratio sample.
    ``fills`` / ``evictions``
        Entries installed, and entries displaced by capacity pressure.
    ``invalidations``
        Cached entries dropped because their mapping changed.
    ``shootdowns``
        Invalidation *requests* issued by another processor (protocol
        cleanups, fault-injection frame offlining), counted whether or
        not an entry was actually cached — it models the IPI received,
        not the slot cleared.
    ``flushes``
        Whole-TLB flushes.
    """

    def __init__(
        self, cpu_id: int, capacity: int = DEFAULT_TLB_ENTRIES
    ) -> None:
        if capacity < 1:
            raise ValueError(f"TLB capacity must be >= 1, got {capacity}")
        self._cpu = cpu_id
        self._capacity = capacity
        self._entries: Dict[int, TLBEntry] = {}
        #: Optional coherence observer (the race detector).  Duck-typed:
        #: it receives ``on_tlb_fill(cpu, vpage)``,
        #: ``on_tlb_invalidate(cpu, vpage, acting_cpu, dropped)`` and
        #: ``on_tlb_flush(cpu, dropped_vpages)``.  A plain attribute so
        #: the hot ``lookup`` path stays untouched; fills and
        #: invalidations are orders of magnitude rarer than lookups.
        self.observer: Optional[object] = None
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0
        self.shootdowns = 0
        self.flushes = 0

    @property
    def cpu(self) -> int:
        """The processor this TLB serves."""
        return self._cpu

    @property
    def capacity(self) -> int:
        """Maximum cached translations."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path -------------------------------------------------------

    def lookup(
        self, vpage: int, need_write: bool = False
    ) -> Optional[TLBEntry]:
        """Return the cached translation for *vpage*, counting hit/miss.

        A cached read-only entry does not satisfy a write access: that is
        a protection upgrade, which must trap to the slow path, so it is
        counted as a miss (the entry stays cached for later reads).
        """
        entry = self._entries.get(vpage)
        if entry is None or (need_write and not entry.writable):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def fill(
        self,
        vpage: int,
        frame: Frame,
        protection: Protection,
        location: MemoryLocation,
        fetch_us: float,
        store_us: float,
        writable_data: bool = False,
    ) -> TLBEntry:
        """Install (or refresh) the translation for *vpage*.

        At capacity the oldest-installed entry is evicted (FIFO — dict
        insertion order), which is close enough to hardware round-robin
        replacement and, unlike LRU, keeps lookups write-free.
        """
        entries = self._entries
        if vpage not in entries and len(entries) >= self._capacity:
            evicted = next(iter(entries))
            del entries[evicted]
            self.evictions += 1
            if self.observer is not None:
                self.observer.on_tlb_invalidate(
                    self._cpu, evicted, self._cpu, True
                )
        entry = TLBEntry(
            vpage, frame, protection, location, fetch_us, store_us,
            writable_data,
        )
        entries[vpage] = entry
        self.fills += 1
        if self.observer is not None:
            self.observer.on_tlb_fill(self._cpu, vpage)
        return entry

    # -- invalidation (the shootdown funnel's machine half) ------------------

    def invalidate(
        self, vpage: int, acting_cpu: Optional[int] = None
    ) -> bool:
        """Drop the cached translation for *vpage*, if any.

        ``acting_cpu`` identifies who requested the invalidation; a
        request from another processor is a shootdown and counted as
        such even when nothing was cached (the IPI is sent regardless).
        Returns whether an entry was actually dropped.
        """
        if acting_cpu is not None and acting_cpu != self._cpu:
            self.shootdowns += 1
        dropped = self._entries.pop(vpage, None) is not None
        if dropped:
            self.invalidations += 1
        if self.observer is not None:
            self.observer.on_tlb_invalidate(
                self._cpu, vpage, acting_cpu, dropped
            )
        return dropped

    def flush(self) -> int:
        """Drop every cached translation; returns how many were live."""
        dropped_vpages = list(self._entries)
        self._entries.clear()
        self.invalidations += len(dropped_vpages)
        self.flushes += 1
        if self.observer is not None:
            self.observer.on_tlb_flush(self._cpu, dropped_vpages)
        return len(dropped_vpages)

    # -- introspection -------------------------------------------------------

    def entries(self) -> Iterator[TLBEntry]:
        """Iterate over cached translations (the sanitizer's sweep)."""
        return iter(list(self._entries.values()))

    @property
    def hit_ratio(self) -> Optional[float]:
        """Hits / lookups so far, or ``None`` before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None

    def counters(self) -> Dict[str, int]:
        """Flat counter snapshot for telemetry and chaos reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "shootdowns": self.shootdowns,
            "flushes": self.flushes,
        }

    @property
    def cached(self) -> Mapping[int, TLBEntry]:
        """The live vpage → entry map, read-only; never replaced, so a
        held handle stays current.  The engine's lean arm probes it in
        place of :meth:`lookup` and counts the hit or miss itself."""
        return self._entries
