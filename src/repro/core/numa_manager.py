"""The NUMA manager: local memories as a consistent cache of global memory.

This module is the paper's primary contribution.  On every page fault the
pmap layer calls :meth:`NUMAManager.request`; the manager asks the policy
for a LOCAL/GLOBAL decision, looks the (request kind, decision, page
state) triple up in the declarative Tables 1-2
(:mod:`repro.core.transitions`), executes the cell's cleanup and copy
actions through :class:`~repro.core.actions.ActionExecutor`, moves the page
to its new state, and finally establishes the requesting processor's
mapping with the *strictest* permission that resolves the fault — which is
what lets writable-but-unwritten pages stay replicated read-only.

Ownership moves are detected here (mechanism) and reported to the policy,
which counts them (policy).  The manager never decides to pin a page; it
only does what the policy's LOCAL/GLOBAL answer plus the tables dictate.

The one exception is *fault recovery* (:mod:`repro.faults`): when an
injector is wired in, block transfers may transiently fail.  The manager
retries them with capped exponential backoff charged to simulated system
time and, after the envelope is exhausted, **degrades** the page to
pinned global memory — deliberately reusing the paper's own graceful
fallback ("when caching stops paying off, stop caching") rather than
inventing a new mechanism.  A permanent local-frame failure likewise
recovers by invalidating the resident page back to its global frame and
retiring the frame.  Without an injector none of these paths run and the
fault-free protocol is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.obs.events import EventBus

from repro.core.actions import ActionExecutor
from repro.core.directory import DirectoryEntry, PageDirectory
from repro.core.policy import NUMAPolicy
from repro.core.state import AccessKind, PageLike, PageState, PlacementDecision
from repro.core.stats import NUMAStats
from repro.core.transitions import (
    ActionSpec,
    Cleanup,
    classify_state,
    first_touch_spec,
    lookup,
)
from repro.errors import OutOfMemoryError, ProtocolError
from repro.machine.machine import Machine
from repro.machine.memory import Frame
from repro.machine.protection import (
    _ALLOWS,
    _NORMALIZED,
    PROT_READ,
    PROT_READ_WRITE,
    Protection,
)
from repro.machine.timing import MemoryLocation


@dataclass
class FreeTag:
    """Token returned by the lazy page-free path (``pmap_free_page``).

    Holds the work deferred until ``pmap_free_page_sync``: local frames
    that still need releasing and, if the page was dirty in a local
    memory, nothing — a freed page's contents are dead, so no sync is
    performed (the paper frees cache resources, it does not preserve
    data nobody can name any more).
    """

    page_id: int
    deferred_frames: List[Frame]
    completed: bool = False


class NUMAManager:
    """Directory-based ownership protocol over two-level NUMA memory."""

    def __init__(
        self,
        machine: Machine,
        policy: NUMAPolicy,
        stats: Optional[NUMAStats] = None,
        check_invariants: bool = True,
    ) -> None:
        self._machine = machine
        # Fixed at the machine's construction, so held rather than
        # re-fetched through ``machine`` on every fault.
        self._cpus = machine.cpus
        self._memory = machine.memory
        self._mapping_op_us = machine.timing.mapping_op_us
        self._policy = policy
        self._stats = stats if stats is not None else NUMAStats()
        self._executor = ActionExecutor(machine, self._stats)
        self._directory = PageDirectory()
        self._pages: Dict[int, PageLike] = {}
        self._check = check_invariants
        self._bus: Optional["EventBus"] = None
        #: The bus's live ``on_transition`` list, held by the ``bus``
        #: setter: every transition tests it, none asks the bus.
        self._transition_hooks: List[Callable] = []
        self._injector: Optional["FaultInjector"] = None
        #: Cached rate gates for the injector's per-request probes (see
        #: the ``injector`` setter).
        self._inj_transfers = False
        self._inj_delays = False
        #: Pages pinned global by the degradation fallback.  Kept by the
        #: manager (not only the policy) so degradation sticks even under
        #: policies that ignore :meth:`NUMAPolicy.note_degraded`.
        self._degraded_pins: Set[int] = set()
        #: Page ids with local copies, per cpu, in insertion order — the
        #: FIFO eviction candidates when a local memory fills up.
        self._resident_by_cpu: Dict[int, Dict[int, None]] = {
            cpu: {} for cpu in machine.config.cpus
        }
        #: Socket tree on multi-level machines; None on the flat ACE,
        #: where the distance-aware override below never fires.
        self._topology = machine.topology

    @property
    def machine(self) -> Machine:
        """The hardware this manager drives."""
        return self._machine

    @property
    def policy(self) -> NUMAPolicy:
        """The placement policy consulted on every fault."""
        return self._policy

    @property
    def stats(self) -> NUMAStats:
        """Action counters for the run so far."""
        return self._stats

    @property
    def directory(self) -> PageDirectory:
        """The per-page protocol directory."""
        return self._directory

    @property
    def bus(self) -> Optional["EventBus"]:
        """The event bus protocol transitions are announced on, if any."""
        return self._bus

    @bus.setter
    def bus(self, bus: Optional["EventBus"]) -> None:
        self._bus = bus
        self._transition_hooks = (
            bus.hooks("on_transition") if bus is not None else []
        )

    @property
    def injector(self) -> Optional["FaultInjector"]:
        """The fault injector consulted on protocol hot paths, if any."""
        return self._injector

    @injector.setter
    def injector(self, injector: Optional["FaultInjector"]) -> None:
        self._injector = injector
        # Profiles are frozen, so rate gates can be cached once.  A
        # zero-rate plan never draws from its RNG for that class, so
        # skipping the probe entirely leaves the fault sequence
        # byte-identical — it only removes per-request call overhead
        # when a class is disabled (the whole `none` profile, message
        # delays under plain `frame-loss`, ...).  Plans that override
        # the draw methods (test doubles) must carry a nonzero rate.
        profile = injector.plan.profile if injector is not None else None
        self._inj_transfers = (
            profile is not None and profile.transfer_fail_rate > 0.0
        )
        self._inj_delays = (
            profile is not None and profile.message_delay_rate > 0.0
        )

    @property
    def degraded_pages(self) -> Set[int]:
        """Pages pinned in global memory by the degradation fallback."""
        return set(self._degraded_pins)

    def _now(self) -> float:
        """Current simulated time (the engine's clock definition)."""
        return max(c.total_time_us for c in self._cpus)

    # -- page lifecycle ----------------------------------------------------

    def page_created(self, page: PageLike) -> DirectoryEntry:
        """Register a newly allocated logical page.

        Zero-fill pages start ``UNTOUCHED`` (their fill is deferred until
        the policy has chosen a memory).  Pages whose contents already
        exist (program text, initialized data read from the load image)
        start ``GLOBAL_WRITABLE``: the content is in the global frame and
        the first fault will replicate or migrate it per the tables.
        """
        entry = self._directory.add(page.page_id, page.global_frame)
        self._pages[page.page_id] = page
        if not page.zero_fill:
            self._transition(entry, PageState.GLOBAL_WRITABLE, cpu=-1)
        return entry

    def page_freed(self, page: PageLike, acting_cpu: int) -> FreeTag:
        """Begin lazy teardown of a page (the paper's ``pmap_free_page``).

        Mappings are dropped immediately — the page must stop being
        reachable — but local frames are released lazily, when
        :meth:`free_page_sync` runs (typically just before the frame pool
        hands the logical page out again).
        """
        entry = self._directory.remove(page.page_id)
        self._pages.pop(page.page_id, None)
        for cpu in list(entry.mappings):
            self._executor.drop_mapping(entry, cpu, acting_cpu)
        deferred = list(entry.local_copies.values())
        for cpu in list(entry.local_copies):
            self._resident_by_cpu[cpu].pop(page.page_id, None)
        entry.local_copies.clear()
        self._degraded_pins.discard(page.page_id)
        self._policy.note_page_freed(page)
        self._stats.pages_freed += 1
        if self._bus is not None:
            self._bus.emit_page_freed(page.page_id)
        return FreeTag(page_id=page.page_id, deferred_frames=deferred)

    def free_page_sync(self, tag: FreeTag, acting_cpu: int) -> None:
        """Complete lazy teardown (the paper's ``pmap_free_page_sync``)."""
        if tag.completed:
            return
        for frame in tag.deferred_frames:
            self._memory.free(frame)
            self._cpus[acting_cpu].charge_system(self._mapping_op_us)
        tag.deferred_frames.clear()
        tag.completed = True
        self._stats.free_syncs += 1

    def materialize_global(self, page_id: int, cpu: int) -> DirectoryEntry:
        """Give an ``UNTOUCHED`` page content in its global frame.

        Used by pmap operations (``pmap_copy_page``) that write a page's
        global frame directly, outside the fault path: the deferred
        zero-fill is now moot and the page becomes ``GLOBAL_WRITABLE``.
        A page that already left ``UNTOUCHED`` is returned unchanged.
        """
        entry = self._directory.get(page_id)
        if entry.state is PageState.UNTOUCHED:
            self._transition(entry, PageState.GLOBAL_WRITABLE, cpu)
        return entry

    # -- the fault path ----------------------------------------------------

    def request(
        self,
        cpu: int,
        vpage: int,
        page: PageLike,
        kind: AccessKind,
        max_prot: Protection,
    ) -> Frame:
        """Resolve a fault: run the protocol and map the page for *cpu*.

        Returns the frame the new mapping points at.  ``max_prot`` is the
        loosest protection machine-independent code permits; the mapping
        is entered with the strictest protection that resolves the fault
        (the paper's min/max-protection pmap extension).
        """
        entry = self._directory.get(page.page_id)
        self._stats.faults[kind] += 1
        if self._inj_delays:
            delay = self._injector.directory_delay_us(
                cpu, page.page_id, self._now
            )
            if delay > 0.0:
                self._cpus[cpu].charge_system(delay)
        decision = self._policy.cache_policy(page, kind, cpu)
        if page.page_id in self._degraded_pins:
            # Degradation outranks the policy: a page whose transfers
            # keep failing stays in global memory until freed, even
            # under policies that ignore note_degraded.
            decision = PlacementDecision.GLOBAL
        if (
            decision is PlacementDecision.LOCAL
            and self._topology is not None
            and entry.state is PageState.LOCAL_WRITABLE
            and entry.owner is not None
            and entry.owner != cpu
            and self._topology.same_socket(entry.owner, cpu)
        ):
            # Distance-aware replicate/migrate: when the dirty page's
            # owner shares the requester's socket, a remote mapping over
            # the socket interconnect (Section 4.4's mechanism at socket
            # distance) beats syncing through far global memory.  The
            # REMOTE machinery below handles it; _try_remote falls back
            # to LOCAL if the envelope refuses.
            decision = PlacementDecision.REMOTE
        if decision is PlacementDecision.REMOTE:
            frame = self._try_remote(entry, cpu, vpage, kind, max_prot)
            if frame is not None:
                if self._check:
                    entry.check_invariants()
                return frame
            # No home to reference remotely yet (or we *are* the home):
            # fall through as a LOCAL request, which establishes one.
            decision = PlacementDecision.LOCAL
        if (
            decision is PlacementDecision.LOCAL
            and cpu not in entry.local_copies
        ):
            decision = self._ensure_local_frame(entry, cpu)

        if entry.state is PageState.UNTOUCHED:
            spec = first_touch_spec(kind, decision)
            self._apply_first_touch(entry, spec, cpu)
        else:
            state_key = classify_state(entry.state, entry.owner, cpu)
            spec = lookup(kind, decision, state_key)
            self._apply(entry, spec, cpu, page)

        frame = self._map(entry, cpu, vpage, kind, max_prot)
        if self._check:
            entry.check_invariants()
        return frame

    def invalidate_page_id(self, page_id: int, acting_cpu: int) -> bool:
        """Drop all mappings of a page by id, if it is still live.

        Used to make a changed policy decision take effect: the next
        reference re-faults and consults the policy afresh.  Returns
        whether the page existed.
        """
        page = self._pages.get(page_id)
        if page is None:
            return False
        self.remove_all_mappings(page, acting_cpu)
        return True

    def remove_all_mappings(self, page: PageLike, acting_cpu: int) -> None:
        """Drop every processor's mapping of *page* (pmap_remove_all).

        The page's protocol state and any local copies are untouched; a
        pmap may drop mappings "at almost any time" and the next fault
        re-enters them.
        """
        entry = self._directory.get(page.page_id)
        for cpu in list(entry.mappings):
            self._executor.drop_mapping(entry, cpu, acting_cpu)
        if self._check:
            entry.check_invariants()

    def location_for(self, page: PageLike, cpu: int) -> MemoryLocation:
        """Where references by *cpu* to *page* currently land."""
        entry = self._directory.get(page.page_id)
        return entry.frame_for(cpu).location_for(cpu)

    # -- internals ---------------------------------------------------------

    def _try_remote(
        self,
        entry: DirectoryEntry,
        cpu: int,
        vpage: int,
        kind: AccessKind,
        max_prot: Protection,
    ) -> Optional[Frame]:
        """The Section 4.4 extension: reference another node's memory.

        Applicable only when the page is LOCAL_WRITABLE in some *other*
        processor's memory: the requester is mapped straight onto the
        owner's frame, across the bus.  No copy is made and no ownership
        moves, so there is no consistency question — both processors
        reference the same physical memory — and no move is counted
        against the policy's threshold.  Returns ``None`` when there is
        no foreign home to reference (caller falls back to LOCAL).
        """
        if entry.state is not PageState.LOCAL_WRITABLE:
            return None
        if entry.owner is None or entry.owner == cpu:
            return None
        if not self.transfer_envelope(entry.page_id, cpu):
            # The cross-bus setup keeps failing; fall back to LOCAL,
            # which will move the page through global memory instead.
            return None
        frame = entry.local_copies[entry.owner]
        wanted = PROT_READ_WRITE if kind is AccessKind.WRITE else PROT_READ
        if not max_prot.normalized().allows(wanted):
            raise ProtocolError(
                f"remote fault wants {wanted!r} but region allows {max_prot!r}"
            )
        target = self._cpus[cpu]
        existing = target.mmu.lookup(vpage)
        if existing is not None:
            if existing.frame != frame:
                target.remove_translation(vpage, acting_cpu=cpu)
            elif existing.protection.allows(wanted):
                wanted = existing.protection
        target.enter_translation(vpage, frame, wanted, acting_cpu=cpu)
        target.charge_system(self._mapping_op_us)
        entry.record_mapping(cpu, vpage, wanted, frame)
        self._stats.remote_mappings += 1
        pagetables = self._machine.pagetables
        if pagetables is not None and self._topology.same_socket(
            entry.owner, cpu
        ):
            pagetables.socket_remote_mappings += 1
        return frame

    def _ensure_local_frame(
        self, entry: DirectoryEntry, cpu: int
    ) -> PlacementDecision:
        """Find *cpu* a local frame for a LOCAL decision, or downgrade it.

        Local memory is a cache; if *cpu* has no free frame we first try
        to evict another page's local copy (FIFO), and only if nothing is
        evictable do we fall back to a GLOBAL decision, counting the
        event so misconfigured machines are visible.  An existing copy
        needs no new frame, so :meth:`request` asks only when *cpu*
        holds none.
        """
        if (
            self._injector is not None
            and self._injector.pressure_possible
            and self._injector.pressure_active(cpu, self._now())
        ):
            # Injected allocation-pressure spike: no new local frames on
            # this node for the window's duration.  Existing copies are
            # kept (the early return above); new placements take the
            # same GLOBAL fallback a genuinely full local memory would.
            self._stats.local_memory_fallbacks += 1
            self._injector.note_pressure_fallback(cpu, entry.page_id)
            return PlacementDecision.GLOBAL
        if self._memory.local_available(cpu) > 0:
            return PlacementDecision.LOCAL
        if self._evict_one(cpu, protect=entry.page_id):
            return PlacementDecision.LOCAL
        self._stats.local_memory_fallbacks += 1
        return PlacementDecision.GLOBAL

    def _evict_one(self, cpu: int, protect: int) -> bool:
        """Evict one resident local copy on *cpu* (not page *protect*).

        An evicted ``READ_ONLY`` copy is simply flushed (global is
        current); if it was the last copy the page reverts to
        ``GLOBAL_WRITABLE``.  An evicted ``LOCAL_WRITABLE`` page is synced
        first and also reverts to ``GLOBAL_WRITABLE``.
        """
        for page_id in self._resident_by_cpu[cpu]:
            if page_id == protect:
                continue
            victim = self._directory.get(page_id)
            if victim.state is PageState.LOCAL_WRITABLE:
                if not self._sync_with_retry(
                    victim, cpu, cpu, self._pages[page_id]
                ):
                    # The victim degraded: its dirty copy went back via
                    # the slow writeback and its frame is already free,
                    # so the eviction achieved its goal anyway.
                    self._stats.evictions += 1
                    return True
                victim.owner = None
            self._executor.flush(victim, [cpu], cpu)
            self._note_nonresident(cpu, page_id)
            if not victim.local_copies:
                self._transition(victim, PageState.GLOBAL_WRITABLE, cpu)
            self._stats.evictions += 1
            if self._check:
                victim.check_invariants()
            return True
        return False

    # -- fault recovery (active only with an injector wired in) ------------

    def transfer_envelope(self, page_id: int, cpu: int) -> bool:
        """Run one block transfer through the retry envelope.

        Returns ``True`` when the transfer (possibly after retries) may
        proceed, ``False`` once the attempt budget is exhausted.  Each
        retry charges capped exponential backoff to *cpu*'s system time,
        so chaos runs pay for their recoveries in simulated time.
        Without an injector, transfers always succeed at zero cost.
        """
        if not self._inj_transfers:
            return True
        injector = self._injector
        retry = injector.retry
        attempt = 1
        while injector.transfer_attempt_fails(page_id, cpu, self._now):
            if attempt >= retry.max_attempts:
                return False
            backoff = retry.backoff_us(attempt)
            self._cpus[cpu].charge_system(backoff)
            self._stats.transfer_retries += 1
            injector.note_retry(page_id, cpu, backoff)
            attempt += 1
        if attempt > 1:
            injector.note_retry_success(page_id, cpu, attempt - 1)
        return True

    def _sync_with_retry(
        self,
        entry: DirectoryEntry,
        copy_cpu: int,
        acting_cpu: int,
        page: PageLike,
    ) -> bool:
        """Sync through the envelope; degrade on permanent failure.

        Returns ``True`` when the normal sync ran.  On permanent failure
        the page is degraded — slow writeback, flush, pinned global —
        and ``False`` is returned; the caller's table cell is moot
        because the page is already ``GLOBAL_WRITABLE``.
        """
        if not self._inj_transfers or self.transfer_envelope(
            entry.page_id, acting_cpu
        ):
            self._executor.sync(entry, copy_cpu, acting_cpu)
            return True
        self._degrade(entry, acting_cpu, page)
        return False

    def _degrade(
        self, entry: DirectoryEntry, cpu: int, page: PageLike
    ) -> None:
        """Permanent transfer failure: pin the page in global memory.

        This deliberately reuses the paper's pinning mechanism — the
        policy is told via ``note_degraded`` (MoveThresholdPolicy adds
        the page to its pinned set) and the manager's own override makes
        the decision stick under any policy.  A dirty copy is written
        back first through the always-succeeding slow path (word-by-word
        uncached writeback at ``degraded_cost_factor`` times the normal
        copy cost), so no data is lost.
        """
        injector = self._injector
        if (
            entry.state is PageState.LOCAL_WRITABLE
            and entry.owner is not None
            and entry.owner in entry.local_copies
        ):
            factor = (
                injector.retry.degraded_cost_factor
                if injector is not None
                else 1.0
            )
            self._executor.sync(entry, entry.owner, cpu, cost_factor=factor)
        self._flush(entry, list(entry.local_copies), cpu)
        self._enter_state(entry, PageState.GLOBAL_WRITABLE, cpu, page)
        newly = entry.page_id not in self._degraded_pins
        self._degraded_pins.add(entry.page_id)
        self._policy.note_degraded(page)
        if newly:
            self._stats.degraded_pins += 1
        if injector is not None:
            injector.note_degraded(entry.page_id, cpu, pinned=True)
        if self._check:
            entry.check_invariants()

    def handle_frame_failure(self, frame: Frame, acting_cpu: int) -> bool:
        """Recover from a permanent local-frame failure (ECC-style).

        The model is predictive offlining: the frame still reads
        correctly, so a dirty resident page is first written back to its
        global frame at degraded cost; then every mapping of the frame
        is shot down, the page is invalidated back to global (the next
        touch re-faults and the policy decides placement afresh), and
        the frame is retired from its pool so it is never recycled.
        Returns whether a resident page had to be invalidated.
        """
        entry = self._directory.find_by_local_frame(frame)
        refaulted = False
        page_id = -1
        if entry is not None:
            page_id = entry.page_id
            holder = next(
                c for c, f in entry.local_copies.items() if f == frame
            )
            if (
                entry.state is PageState.LOCAL_WRITABLE
                and entry.owner == holder
            ):
                factor = (
                    self._injector.retry.degraded_cost_factor
                    if self._injector is not None
                    else 1.0
                )
                self._executor.sync(
                    entry, holder, acting_cpu, cost_factor=factor
                )
                entry.owner = None
            self._flush(entry, [holder], acting_cpu)
            if not entry.local_copies:
                self._transition(
                    entry, PageState.GLOBAL_WRITABLE, acting_cpu
                )
            refaulted = True
            if self._check:
                entry.check_invariants()
        self._memory.take_offline(frame)
        self._stats.frames_offlined += 1
        if self._injector is not None:
            self._injector.frame_recovered(frame, page_id, refaulted)
        return refaulted

    def _apply_first_touch(
        self, entry: DirectoryEntry, spec: ActionSpec, cpu: int
    ) -> None:
        """Resolve the deferred zero-fill of an untouched page."""
        if spec.copy_to_local:
            self._executor.zero_fill_local(entry, cpu)
            self._note_resident(cpu, entry.page_id)
        else:
            self._executor.zero_fill_global(entry, cpu)
        self._enter_state(entry, spec.new_state, cpu)

    def _apply(
        self, entry: DirectoryEntry, spec: ActionSpec, cpu: int, page: PageLike
    ) -> None:
        """Execute one Table 1/2 cell."""
        # The copy's transfer envelope runs *before* the cleanup: the
        # directory is still fully consistent here, so recovery events
        # (which trigger sanitizer sweeps) see a sound state, and a
        # permanent failure degrades the page while its dirty copy is
        # still in place to be written back.
        will_copy = spec.copy_to_local and cpu not in entry.local_copies
        if (
            will_copy
            and self._inj_transfers
            and not self.transfer_envelope(entry.page_id, cpu)
        ):
            self._degrade(entry, cpu, page)
            return

        cleanup = spec.cleanup
        if cleanup is Cleanup.SYNC_FLUSH_OWN:
            if not self._sync_with_retry(entry, cpu, cpu, page):
                return
            self._flush(entry, [cpu], cpu)
        elif cleanup is Cleanup.SYNC_FLUSH_OTHER:
            owner = entry.owner
            if owner is None:
                raise ProtocolError(
                    f"page {entry.page_id}: sync&flush other with no owner"
                )
            if not self._sync_with_retry(entry, owner, cpu, page):
                return
            self._flush(entry, [owner], cpu)
        elif cleanup is Cleanup.FLUSH_ALL:
            self._flush(entry, list(entry.local_copies), cpu)
        elif cleanup is Cleanup.FLUSH_OTHER:
            others = [c for c in entry.local_copies if c != cpu]
            self._flush(entry, others, cpu)
        elif cleanup is Cleanup.UNMAP_ALL:
            self._executor.unmap_all(entry, cpu)

        if will_copy:
            try:
                self._executor.copy_to_local(entry, cpu, cpu)
            except OutOfMemoryError:
                # The pre-check in _ensure_local_frame should prevent
                # this; reaching here means concurrent growth we cannot
                # model, so surface it as a protocol bug.
                raise ProtocolError(
                    f"no local frame for page {entry.page_id} on cpu {cpu} "
                    "despite pre-check"
                ) from None
            self._note_resident(cpu, entry.page_id)

        self._enter_state(entry, spec.new_state, cpu, page)

    def _flush(
        self, entry: DirectoryEntry, cpus: List[int], acting_cpu: int
    ) -> None:
        self._executor.flush(entry, cpus, acting_cpu)
        for cpu in cpus:
            self._note_nonresident(cpu, entry.page_id)

    def _enter_state(
        self,
        entry: DirectoryEntry,
        new_state: PageState,
        cpu: int,
        page: Optional[PageLike] = None,
    ) -> None:
        moved = False
        if new_state is PageState.LOCAL_WRITABLE:
            moved = entry.note_ownership(cpu)
            if page is None:
                page = self._pages[entry.page_id]
            if moved:
                self._stats.moves += 1
                self._policy.note_move(page)
            self._policy.note_owner(page, cpu)
        else:
            entry.owner = None
        self._transition(entry, new_state, cpu, moved=moved)

    def _transition(
        self,
        entry: DirectoryEntry,
        new_state: PageState,
        cpu: int,
        moved: bool = False,
    ) -> None:
        """The single site that rewrites a page's protocol state.

        Everything that changes a :class:`PageState` funnels through
        here so the transition is announced on the event bus; the lint
        rules ``state-assign`` and ``transition-event`` enforce this
        statically.  ``cpu=-1`` marks transitions with no requesting
        processor (page creation from a load image).
        """
        old_state = entry.state
        entry.state = new_state
        if self._transition_hooks:
            self._bus.emit_transition(
                entry.page_id, cpu, old_state, new_state, moved
            )

    def _map(
        self,
        entry: DirectoryEntry,
        cpu: int,
        vpage: int,
        kind: AccessKind,
        max_prot: Protection,
    ) -> Frame:
        """Enter the requester's mapping with minimal sufficient rights."""
        if kind is AccessKind.WRITE:
            wanted = PROT_READ_WRITE
        else:
            wanted = PROT_READ
        if not _ALLOWS[_NORMALIZED[max_prot]][wanted]:
            raise ProtocolError(
                f"fault wants {wanted!r} but region allows {max_prot!r}"
            )
        if entry.state is PageState.READ_ONLY:
            prot = PROT_READ
        elif entry.state is PageState.LOCAL_WRITABLE:
            # The owner may keep (or gain) write permission; reads by the
            # owner of a dirty page do not force a downgrade.
            prot = wanted if kind is AccessKind.WRITE else PROT_READ
            if cpu != entry.owner:
                raise ProtocolError(
                    f"page {entry.page_id}: mapping cpu {cpu} while "
                    f"LOCAL_WRITABLE on {entry.owner}"
                )
        else:
            prot = wanted
        # DirectoryEntry.frame_for, read in place.
        frame = entry.local_copies.get(cpu)
        if frame is None:
            frame = entry.global_frame
        target = self._cpus[cpu]
        existing = target.mmu.lookup(vpage)
        if existing is not None:
            if existing.frame is not frame:
                target.remove_translation(vpage, acting_cpu=cpu)
            elif _ALLOWS[existing.protection][prot]:
                prot = existing.protection  # keep the stronger mapping
        target.enter_translation(vpage, frame, prot, acting_cpu=cpu)
        target.system_time_us += self._mapping_op_us  # a validated price
        entry.record_mapping(cpu, vpage, prot, frame)
        return frame

    def _note_resident(self, cpu: int, page_id: int) -> None:
        self._resident_by_cpu[cpu][page_id] = None

    def _note_nonresident(self, cpu: int, page_id: int) -> None:
        self._resident_by_cpu[cpu].pop(page_id, None)

    # -- introspection -----------------------------------------------------

    def resident_pages(self, cpu: int) -> Set[int]:
        """Ids of pages with a local copy on *cpu*."""
        return set(self._resident_by_cpu[cpu])

    def check_all_invariants(self) -> None:
        """Run the directory invariant checks over every page."""
        for entry in self._directory.entries():
            entry.check_invariants()
