"""Runtime protocol sanitizer: re-validate invariants after every event.

Opt-in via ``REPRO_SANITIZE=1`` (any value other than ``0``, ``false``,
``no``, ``off``):  :func:`repro.sim.harness.build_simulation` then
subscribes a :class:`ProtocolSanitizer` to the run's event bus.  After
every protocol event the sanitizer re-checks:

* **directory invariants** — the transitioned page still satisfies the
  Section 2.3.1 state-definition invariants
  (:meth:`~repro.core.directory.DirectoryEntry.check_invariants`), with
  a throttled full-directory sweep on round boundaries and an exhaustive
  sweep at run end;
* **move-count monotonicity** — a page's ownership-move count never
  decreases, and increments by exactly one on a ``moved`` transition;
* **pin-stays-pinned** — once the policy pins a page, every later
  transition lands it in ``GLOBAL_WRITABLE`` and the pin is never
  dropped while the page lives (policies that deliberately reconsider
  pins declare ``reconsiders_pinning = True`` and are exempt);
* **recovery soundness** — after every fault-injection *recovery*
  (retry success, degradation to global, frame offlining, pressure
  fallback) the full directory is re-swept, so a recovery path that
  leaves the protocol inconsistent fails at the recovery, not at some
  distant later transition;
* **TLB coherence** — every translation cached in a per-CPU
  :class:`~repro.machine.tlb.SoftwareTLB` must match the live MMU
  (same frame, same protection), carry the latency class the frame
  actually has from that processor, and agree with the directory's
  mapping for that processor.  A stale entry means some MMU mutation
  bypassed the CPU's invalidation funnel (lint rule RN007) and the
  engine's fast path is charging references against a dead mapping.

A failed check raises :class:`~repro.errors.ProtocolViolation` carrying
the check name, the offending page, and the trail of recent events.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.state import PageState
from repro.errors import ProtocolError, ProtocolViolation

#: The environment variable that opts a run into sanitizing.
ENV_FLAG = "REPRO_SANITIZE"

#: Values of :data:`ENV_FLAG` that mean "off".
_FALSEY = frozenset({"", "0", "false", "no", "off"})


def sanitizer_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether the environment opts runs into the protocol sanitizer."""
    env = environ if environ is not None else os.environ
    return env.get(ENV_FLAG, "").strip().lower() not in _FALSEY


class ProtocolSanitizer:
    """Event-bus observer that cross-checks the protocol as it runs.

    ``full_sweep_interval`` throttles the all-pages invariant sweep to
    every that many scheduling rounds (0 disables the periodic sweep;
    the end-of-run sweep always happens).
    """

    #: Recent events kept for a violation's trail.
    MAX_TRAIL = 32

    def __init__(self, numa, full_sweep_interval: int = 64) -> None:
        self._numa = numa
        self._policy = numa.policy
        self._trail: Deque[Dict[str, Any]] = deque(maxlen=self.MAX_TRAIL)
        self._move_counts: Dict[int, int] = {}
        self._pinned_seen: set = set()
        self._full_sweep_interval = full_sweep_interval
        self._rounds_seen = 0
        #: Checks performed so far (cheap liveness signal for tests).
        self.checks = 0
        #: TLB-coherence sweeps performed; counted apart from ``checks``
        #: so reports that record ``sanitizer_checks`` stay comparable
        #: with pre-TLB runs.
        self.tlb_checks = 0
        #: The :class:`~repro.check.races.RaceDetector` attached
        #: alongside this sanitizer (set by :func:`attach_sanitizer`);
        #: ``None`` when the sanitizer runs alone.
        self.races = None

    # -- event trail ---------------------------------------------------------

    def trail(self) -> Tuple[Dict[str, Any], ...]:
        """The recent event trail, oldest first."""
        return tuple(self._trail)

    def _fail(
        self,
        message: str,
        check: str,
        page_id: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        raise ProtocolViolation(
            message,
            check=check,
            events=self.trail(),
            page_id=page_id,
            details=details or {},
        )

    # -- engine hooks --------------------------------------------------------
    # Records read an enum's ``_value_``: what ``value`` returns, without
    # that property's two Python-level calls per fault and transition.

    def on_fault(self, round_index, cpu, vpage, kind) -> None:
        self._trail.append(
            {
                "t": "fault",
                "round": round_index,
                "cpu": cpu,
                "vpage": vpage,
                "kind": kind._value_,
            }
        )

    def on_fault_resolved(
        self, round_index, cpu, vpage, kind, system_us
    ) -> None:
        self._trail.append(
            {
                "t": "fault_resolved",
                "round": round_index,
                "cpu": cpu,
                "vpage": vpage,
                "kind": kind._value_,
                "system_us": system_us,
            }
        )

    def on_transition(
        self,
        page_id: int,
        cpu: int,
        old_state: PageState,
        new_state: PageState,
        moved: bool,
    ) -> None:
        self._trail.append(
            {
                "t": "transition",
                "page_id": page_id,
                "cpu": cpu,
                "old_state": old_state._value_,
                "new_state": new_state._value_,
                "moved": moved,
            }
        )
        self.checks += 1
        directory = self._numa.directory
        if page_id not in directory:
            self._fail(
                f"transition announced for page {page_id} that is not in "
                "the directory",
                check="directory-invariants",
                page_id=page_id,
            )
        entry = directory.get(page_id)
        try:
            entry.check_invariants()
        except ProtocolError as error:
            raise ProtocolViolation(
                f"directory invariants violated after transition: {error}",
                check="directory-invariants",
                events=self.trail(),
                page_id=page_id,
                mappings=error.mappings,
                details=error.details,
            ) from error
        self._check_move_count(entry, moved)
        self._check_pinning(page_id, new_state)

    def on_page_freed(self, page_id: int) -> None:
        self._trail.append({"t": "page_freed", "page_id": page_id})
        # A freed page's protocol history is void: the id may be reused
        # by a fresh page with a fresh move budget.
        self._move_counts.pop(page_id, None)
        self._pinned_seen.discard(page_id)

    def on_fault_injected(
        self, kind: str, cpu: int, page_id: int, sim_us: float
    ) -> None:
        self._trail.append(
            {
                "t": "fault_injected",
                "kind": kind,
                "cpu": cpu,
                "page_id": page_id,
                "sim_us": sim_us,
            }
        )

    def on_recovery(
        self, action: str, cpu: int, page_id: int, detail: str
    ) -> None:
        self._trail.append(
            {
                "t": "recovery",
                "action": action,
                "cpu": cpu,
                "page_id": page_id,
                "detail": detail,
            }
        )
        # Every recovery must leave the whole directory consistent.
        self.check_directory()

    def on_round_end(self, round_index: int) -> None:
        self._rounds_seen += 1
        interval = self._full_sweep_interval
        if interval and self._rounds_seen % interval == 0:
            self.check_directory()

    def on_run_end(self, rounds: int) -> None:
        self._trail.append({"t": "run_end", "rounds": rounds})
        self.check_directory()

    # -- the checks ----------------------------------------------------------

    def _check_move_count(self, entry, moved: bool) -> None:
        page_id = entry.page_id
        last = self._move_counts.get(page_id)
        if last is not None:
            expected = last + 1 if moved else last
            if entry.move_count < last:
                self._fail(
                    f"page {page_id} move count went backwards: "
                    f"{last} -> {entry.move_count}",
                    check="move-count-monotonic",
                    page_id=page_id,
                    details={"before": last, "after": entry.move_count},
                )
            if entry.move_count != expected:
                self._fail(
                    f"page {page_id} move count {entry.move_count} does not "
                    f"match transition (expected {expected}, moved={moved})",
                    check="move-count-monotonic",
                    page_id=page_id,
                    details={
                        "before": last,
                        "after": entry.move_count,
                        "moved": moved,
                    },
                )
        self._move_counts[page_id] = entry.move_count

    def _check_pinning(self, page_id: int, new_state: PageState) -> None:
        policy = self._policy
        if not hasattr(policy, "is_pinned"):
            return
        if getattr(policy, "reconsiders_pinning", False):
            return
        # The transition that *causes* the pin is itself LOCAL_WRITABLE
        # (the move that crossed the threshold); the pin binds from the
        # next fault on.  Only pages pinned before this transition must
        # land in global memory.
        was_pinned = page_id in self._pinned_seen
        if policy.is_pinned(page_id):
            self._pinned_seen.add(page_id)
        elif was_pinned:
            self._fail(
                f"page {page_id} was pinned but the policy no longer pins "
                "it (pinning must only be reconsidered when the page is "
                "freed)",
                check="pin-stays-pinned",
                page_id=page_id,
            )
        if was_pinned and new_state is not PageState.GLOBAL_WRITABLE:
            self._fail(
                f"pinned page {page_id} transitioned to {new_state.value}; "
                "a pinned page must stay in global memory",
                check="pin-stays-pinned",
                page_id=page_id,
                details={"new_state": new_state.value},
            )

    def check_directory(self) -> None:
        """Re-validate every live directory entry, then sweep the TLBs."""
        self.checks += 1
        for entry in self._numa.directory.entries():
            try:
                entry.check_invariants()
            except ProtocolError as error:
                raise ProtocolViolation(
                    f"directory sweep failed: {error}",
                    check="directory-invariants",
                    events=self.trail(),
                    page_id=error.page_id,
                    mappings=error.mappings,
                    details=error.details,
                ) from error
        self.check_tlbs()

    def check_tlbs(self) -> None:
        """Every cached TLB translation must match live MMU/directory state.

        Runs wherever the directory sweep runs (recoveries, periodic
        round sweeps, run end), so a mutation that bypassed the CPU's
        invalidation funnel surfaces at the next sweep rather than as a
        silently mispriced reference batch.
        """
        self.tlb_checks += 1
        machine = self._numa.machine
        timing = machine.timing
        by_mapping: Dict[Tuple[int, int], Tuple[int, Any]] = {}
        for entry in self._numa.directory.entries():
            for cpu_id, mapping in entry.mappings.items():
                by_mapping[(cpu_id, mapping.vpage)] = (entry.page_id, mapping)
        for cpu in machine.cpus:
            cpu_id = cpu.id
            for cached in cpu.tlb.entries():
                vpage = cached.vpage
                live = cpu.mmu.lookup(vpage)
                if live is None:
                    self._fail(
                        f"cpu {cpu_id} TLB caches vpage {vpage} but the "
                        "MMU no longer maps it (missed shootdown?)",
                        check="tlb-coherence",
                        details={"cpu": cpu_id, "vpage": vpage},
                    )
                if (
                    live.frame != cached.frame
                    or live.protection != cached.protection
                ):
                    self._fail(
                        f"cpu {cpu_id} TLB entry for vpage {vpage} is "
                        f"stale: caches {cached.frame}/"
                        f"{cached.protection!r}, MMU holds {live.frame}/"
                        f"{live.protection!r}",
                        check="tlb-coherence",
                        details={"cpu": cpu_id, "vpage": vpage},
                    )
                # ref_costs is the same oracle the engine's _charge_half
                # fills from: on multi-level machines a same-socket remote
                # frame is priced at socket speed (flat: identical).
                location, fetch_us, store_us = timing.ref_costs(
                    cpu_id, cached.frame
                )
                if (
                    cached.location is not location
                    or cached.fetch_us != fetch_us
                    or cached.store_us != store_us
                ):
                    self._fail(
                        f"cpu {cpu_id} TLB entry for vpage {vpage} carries "
                        f"a wrong latency class ({cached.location.value}, "
                        f"frame is {location.value} from cpu {cpu_id})",
                        check="tlb-coherence",
                        details={"cpu": cpu_id, "vpage": vpage},
                    )
                mapped = by_mapping.get((cpu_id, vpage))
                if mapped is not None and mapped[1].frame != cached.frame:
                    self._fail(
                        f"cpu {cpu_id} TLB entry for vpage {vpage} maps "
                        f"{cached.frame} but the directory maps "
                        f"{mapped[1].frame}",
                        check="tlb-coherence",
                        page_id=mapped[0],
                        details={"cpu": cpu_id, "vpage": vpage},
                    )


def attach_sanitizer(
    numa, bus, races: bool = True, **kwargs
) -> ProtocolSanitizer:
    """Wire a sanitizer into a run: subscribe it to the event bus.

    ``races=True`` (the default) also attaches a raising
    :class:`~repro.check.races.RaceDetector`, so every sanitized run
    gets lockset/happens-before race checking alongside the directory
    and TLB sweeps.
    """
    sanitizer = ProtocolSanitizer(numa, **kwargs)
    bus.subscribe(sanitizer)
    if races:
        from repro.check.races import attach_detector

        sanitizer.races = attach_detector(
            numa, bus, raise_on_race=True
        )
    return sanitizer


def maybe_attach_sanitizer(
    numa, bus, environ: Optional[Dict[str, str]] = None
) -> Optional[ProtocolSanitizer]:
    """Attach a sanitizer iff ``REPRO_SANITIZE`` opts the run in."""
    if not sanitizer_enabled(environ):
        return None
    return attach_sanitizer(numa, bus)
