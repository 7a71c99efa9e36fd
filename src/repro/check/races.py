"""The dynamic race detector for the simulated NUMA concurrency substrate.

``repro-numa races`` has two layers.  The **static** one — guard
inference plus lint rules RN008 and RN010 — parses source and lives with
the rest of the static tooling in :mod:`repro.check.lint`; this module
neither imports it nor ``ast``, so a run that only wants the detector
(a chaos worker, the sanitizer) never loads the linter.
:func:`run_race_check` reaches for it inside its static branch.

The **dynamic** layer is :class:`RaceDetector`, an Eraser-style lockset
algorithm combined with vector-clock happens-before tracking, driven
entirely off existing observation surfaces: the event bus
(``on_transition``/``on_reference``/``on_page_freed``) and the TLB/MMU
mutation observers added for this detector.  Because the simulator
executes one operation at a time, the detector is not hunting torn
reads; it hunts *discipline violations* that would be races on real
hardware:

- a directory entry's state changed without going through the
  ``NUMAManager._transition`` funnel (caught by shadow-state mismatch;
  the page's lockset is then empty, so a later access that
  happens-before does not order is a race too);
- an MMU translation changed while a TLB still cached the old one and
  no shootdown followed before the next reference through that TLB
  (caught by pairing the MMU-mutation stream with the invalidation
  stream).

Candidate races are reported with full event trails like
:class:`~repro.errors.ProtocolViolation`, and each report is checked
for *realizability* against the model checker's abstract interleaving
layer (:func:`repro.check.modelcheck.stale_tlb_reachable`,
:func:`repro.check.modelcheck.legal_transition_pairs`) so a report
names whether the protocol state space can actually exhibit the
corruption.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.state import PageState
from repro.errors import ProtocolViolation

if TYPE_CHECKING:
    from repro.check.guards import GuardModel
    from repro.check.lint import LintReport

# ---------------------------------------------------------------------------
# Lockset + happens-before
# ---------------------------------------------------------------------------

VectorClock = Dict[str, int]


def _join(into: VectorClock, other: VectorClock) -> None:
    """Pointwise max, in place."""
    for key, value in other.items():
        if into.get(key, 0) < value:
            into[key] = value


def _happens_before(earlier: VectorClock, later: VectorClock) -> bool:
    """Whether *earlier* ≤ *later* pointwise (an HB edge exists)."""
    return all(later.get(key, 0) >= value for key, value in earlier.items())


@dataclass(frozen=True)
class RaceReport:
    """One candidate race, with the event trail that led to it."""

    kind: str
    message: str
    page_id: Optional[int]
    cpu: Optional[int]
    vpage: Optional[int]
    events: Tuple[Dict[str, object], ...]
    details: Dict[str, object]

    def to_violation(self) -> ProtocolViolation:
        """The equivalent structured error (raised in sanitizer mode)."""
        return ProtocolViolation(
            self.message,
            check=f"race:{self.kind}",
            events=self.events,
            page_id=self.page_id,
            details=dict(self.details),
        )

    def format(self) -> str:
        """Human-readable report with the numbered event trail."""
        header = f"race[{self.kind}]: {self.message}"
        return header + "\n" + self.to_violation().format_trail()

    def as_record(self) -> Dict[str, object]:
        """Flat record for ``--json`` sinks."""
        return {
            "t": "race",
            "kind": self.kind,
            "message": self.message,
            "page_id": self.page_id,
            "cpu": self.cpu,
            "vpage": self.vpage,
            "events": len(self.events),
            **{f"detail_{k}": v for k, v in sorted(self.details.items())},
        }


class RaceDetector:
    """Eraser-style lockset + vector-clock happens-before tracker.

    Observes a single simulation through the event bus and the TLB/MMU
    mutation observers; flags candidate races either by raising
    :class:`~repro.errors.ProtocolViolation` (``raise_on_race=True``,
    the sanitizer wiring) or by collecting :class:`RaceReport` objects
    (the CLI and fixture wiring).

    All state is event-driven and the engine is deterministic, so for a
    fixed workload/profile/seed the detector's counters and reports are
    byte-identical run to run.
    """

    #: Recent events kept for a report's trail.
    MAX_TRAIL = 32
    #: Reports kept (the ``reported`` counter keeps counting past it).
    MAX_REPORTS = 64

    def __init__(self, raise_on_race: bool = True) -> None:
        self._raise_on_race = raise_on_race
        self._trail: Deque[Dict[str, object]] = deque(maxlen=self.MAX_TRAIL)
        #: Candidate races found so far (bounded by ``MAX_REPORTS``).
        self.reports: List[RaceReport] = []
        # Vector clocks: per thread and per page funnel.
        self._clocks: Dict[str, VectorClock] = {}
        self._monitor_clocks: Dict[int, VectorClock] = {}
        # Eraser lockset state.  The per-page funnel is the only lock, so
        # a page's lockset is {funnel:p} until a write bypasses the
        # funnel and empty from then until the page is freed: these are
        # the pages whose lockset is empty.
        self._bypassed: Set[int] = set()
        self._last_access: Dict[int, Tuple[str, VectorClock]] = {}
        # Shadow of the announced protocol state, per page.
        self._shadow: Dict[int, PageState] = {}
        # TLB mirror + pending (unshotdown) MMU mutations.
        self._mirror: Dict[int, Set[int]] = {}
        self._pending: Set[Tuple[int, int]] = set()
        # Telemetry counters.
        self.accesses = 0
        self.sync_edges = 0
        self.candidates = 0
        self.reported = 0

    # -- plumbing ----------------------------------------------------------

    def _clock_of(self, thread: str) -> VectorClock:
        clock = self._clocks.get(thread)
        if clock is None:
            clock = {thread: 0}
            self._clocks[thread] = clock
        return clock

    def _report(
        self,
        kind: str,
        message: str,
        page_id: Optional[int] = None,
        cpu: Optional[int] = None,
        vpage: Optional[int] = None,
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        self.reported += 1
        info: Dict[str, object] = dict(details or {})
        info["realizable"] = self._realizable(kind, info)
        report = RaceReport(
            kind=kind,
            message=message,
            page_id=page_id,
            cpu=cpu,
            vpage=vpage,
            events=tuple(dict(e) for e in self._trail),
            details=info,
        )
        if len(self.reports) < self.MAX_REPORTS:
            self.reports.append(report)
        if self._raise_on_race:
            raise report.to_violation()

    def _realizable(self, kind: str, details: Dict[str, object]) -> bool:
        """Cross-check a report against the model checker's state space."""
        from repro.check.modelcheck import (
            legal_transition_pairs,
            stale_tlb_reachable,
        )

        if kind == "missed-shootdown":
            # Realizable iff suppressing a single shootdown edge can
            # reach a configuration violating the TLB cache invariant.
            return stale_tlb_reachable()
        if kind in ("unguarded-state-write", "lockset-empty"):
            expected = details.get("expected_state")
            announced = details.get("announced_state")
            if isinstance(expected, str) and isinstance(announced, str):
                pairs = {
                    (old.value, new.value)
                    for old, new in legal_transition_pairs()
                }
                # Either no legal protocol step produces this pair (an
                # out-of-protocol write) or a legal step exists but was
                # not announced — both are real races; record which.
                details["legal_step_exists"] = (
                    expected,
                    announced,
                ) in pairs
            return True
        return True

    # -- event-bus hooks ---------------------------------------------------

    def on_transition(
        self,
        page_id: int,
        cpu: int,
        old_state: PageState,
        new_state: PageState,
        moved: bool,
    ) -> None:
        thread = f"cpu:{cpu}"
        self.accesses += 1
        self._trail.append(
            {
                "t": "transition",
                "page_id": page_id,
                "cpu": cpu,
                "old": old_state._value_,
                "new": new_state._value_,
                "moved": moved,
            }
        )
        shadow = self._shadow.get(page_id)
        rogue = shadow is not None and shadow is not old_state
        if rogue:
            # The unannounced write that moved the state off the shadow
            # bypassed the funnel: the page's lockset is empty from now.
            self._bypassed.add(page_id)
        clock = self._clock_of(thread)
        last = self._last_access.get(page_id)
        ordered = (
            last is None
            or last[0] == thread
            or _happens_before(last[1], clock)
        )
        if rogue:
            self.candidates += 1
            self._report(
                "unguarded-state-write",
                f"page {page_id} state changed to "
                f"{old_state.value!r} without an announced transition "
                f"(last announced state was {shadow.value!r}); a write "
                "bypassed the NUMAManager._transition funnel",
                page_id=page_id,
                cpu=cpu,
                details={
                    "expected_state": (
                        shadow.value if shadow is not None else None
                    ),
                    "announced_state": old_state.value,
                    "new_state": new_state.value,
                    "lockset": [],
                },
            )
        elif page_id in self._bypassed and not ordered:
            self.candidates += 1
            self._report(
                "lockset-empty",
                f"accesses to page {page_id} share no lock and are "
                "unordered by happens-before",
                page_id=page_id,
                cpu=cpu,
                details={"lockset": [], "thread": thread},
            )
        self._shadow[page_id] = new_state
        # Happens-before: the funnel is a monitor, so joining through
        # its clock orders consecutive transitions on the same page.
        monitor = self._monitor_clocks.get(page_id)
        if monitor is not None:
            _join(clock, monitor)
        clock[thread] = clock.get(thread, 0) + 1
        self._monitor_clocks[page_id] = dict(clock)
        self.sync_edges += 1
        self._last_access[page_id] = (thread, dict(clock))

    def on_page_freed(self, page_id: int) -> None:
        self._shadow.pop(page_id, None)
        self._bypassed.discard(page_id)
        self._last_access.pop(page_id, None)
        self._monitor_clocks.pop(page_id, None)
        self._trail.append({"t": "page_freed", "page_id": page_id})

    def on_fault(
        self, round_index: int, cpu: int, vpage: int, kind: object
    ) -> None:
        # ``_value_`` is what an enum's ``value`` property returns, read
        # without the property's calls; ``str`` only for a non-enum kind.
        value = getattr(kind, "_value_", None)
        self._trail.append(
            {
                "t": "fault",
                "round": round_index,
                "cpu": cpu,
                "vpage": vpage,
                "kind": str(kind) if value is None else value,
            }
        )

    def on_reference(
        self,
        round_index: int,
        cpu: int,
        vpage: int,
        page_id: int,
        reads: int,
        writes: int,
        location: object,
        writable_data: bool,
    ) -> None:
        self.accesses += 1
        key = (cpu, vpage)
        if key in self._pending and vpage in self._mirror.get(cpu, ()):
            self.candidates += 1
            self._pending.discard(key)
            self._trail.append(
                {
                    "t": "reference",
                    "round": round_index,
                    "cpu": cpu,
                    "vpage": vpage,
                    "page_id": page_id,
                    "reads": reads,
                    "writes": writes,
                }
            )
            self._report(
                "missed-shootdown",
                f"cpu {cpu} referenced vpage {vpage} through a TLB "
                "entry cached before its MMU translation changed; no "
                "shootdown was issued between the mutation and the "
                "reference",
                page_id=page_id,
                cpu=cpu,
                vpage=vpage,
                details={"round": round_index},
            )

    def on_run_end(self, rounds: int) -> None:
        self._trail.append({"t": "run_end", "rounds": rounds})

    # -- TLB/MMU mutation observer hooks -----------------------------------

    def on_tlb_fill(self, cpu: int, vpage: int) -> None:
        self._mirror.setdefault(cpu, set()).add(vpage)
        self._pending.discard((cpu, vpage))

    def on_tlb_invalidate(
        self,
        cpu: int,
        vpage: int,
        acting_cpu: Optional[int],
        dropped: bool,
    ) -> None:
        self._mirror.setdefault(cpu, set()).discard(vpage)
        self._pending.discard((cpu, vpage))
        if acting_cpu is not None and acting_cpu != cpu:
            # A cross-CPU shootdown is an IPI plus its acknowledgement:
            # a two-way synchronization edge between the acting thread
            # and the TLB's owner.
            acting = self._clock_of(f"cpu:{acting_cpu}")
            target = self._clock_of(f"cpu:{cpu}")
            _join(acting, target)
            _join(target, acting)
            self.sync_edges += 1
            self._trail.append(
                {
                    "t": "shootdown",
                    "cpu": cpu,
                    "vpage": vpage,
                    "acting_cpu": acting_cpu,
                    "dropped": dropped,
                }
            )

    def on_tlb_flush(self, cpu: int, dropped_vpages: List[int]) -> None:
        self._mirror.setdefault(cpu, set()).clear()
        self._pending = {p for p in self._pending if p[0] != cpu}
        self._trail.append(
            {
                "t": "tlb_flush",
                "cpu": cpu,
                "dropped": len(dropped_vpages),
            }
        )

    def on_mmu_mutation(self, cpu: int, op: str, vpage: int) -> None:
        self._trail.append(
            {"t": "mmu_mutation", "cpu": cpu, "op": op, "vpage": vpage}
        )
        if vpage in self._mirror.get(cpu, ()):
            # The translation changed under a live TLB entry; unless an
            # invalidation lands before the next reference through this
            # TLB, that reference resolves through stale state.
            self._pending.add((cpu, vpage))

    # -- reporting ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        """Whether no candidate race has been found."""
        return not self.reports and self.reported == 0

    def counters(self) -> Dict[str, int]:
        """Flat ``races_*`` counter snapshot (telemetry + chaos report)."""
        return {
            "races_accesses": self.accesses,
            "races_sync_edges": self.sync_edges,
            # Kept at 0 so the chaos goldens keep their bytes; ROADMAP
            # item 3's re-pin removes the key.
            "races_lock_events": 0,
            "races_candidates": self.candidates,
            "races_reported": self.reported,
        }

    def publish_metrics(self, registry: object) -> None:
        """Mirror the counters into a :class:`MetricsRegistry`."""
        counter = getattr(registry, "counter", None)
        if counter is None:
            return
        for name, value in self.counters().items():
            metric = counter(name)
            delta = value - metric.value
            if delta > 0:
                metric.inc(delta)

    def as_records(self) -> List[Dict[str, object]]:
        """Flat records: one per report plus a counter summary."""
        records: List[Dict[str, object]] = [
            r.as_record() for r in self.reports
        ]
        records.append({"t": "race_summary", **self.counters()})
        return records

    def format(self) -> str:
        """Human-readable summary with full trails for each report."""
        counters = self.counters()
        lines = [
            "race detector: "
            + ", ".join(f"{k}={v}" for k, v in counters.items())
        ]
        for report in self.reports:
            lines.append(report.format())
        if not self.reports:
            lines.append("no candidate races")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Attachment plumbing
# ---------------------------------------------------------------------------


def attach_detector(
    numa: object,
    bus: object,
    detector: Optional[RaceDetector] = None,
    raise_on_race: bool = True,
) -> RaceDetector:
    """Wire a detector into a built simulation.

    Subscribes to the event bus and claims the TLB/MMU mutation
    observer slot on every CPU.
    """
    if detector is None:
        detector = RaceDetector(raise_on_race=raise_on_race)
    subscribe = getattr(bus, "subscribe", None)
    if subscribe is not None:
        subscribe(detector)
    machine = getattr(numa, "machine", None)
    if machine is not None:
        for cpu in machine.cpus:
            cpu.tlb.observer = detector
            cpu.mmu.observer = detector
    return detector


def detach_detector(
    detector: RaceDetector, machine: Optional[object] = None
) -> None:
    """Release the per-CPU TLB/MMU observer slots *detector* holds.

    Kept only for the frozen ``benchmarks/ledger/child.py``, which
    imports it by name; ROADMAP 1(f) deletes it.
    """
    if machine is not None:
        for cpu in machine.cpus:
            if cpu.tlb.observer is detector:
                cpu.tlb.observer = None
            if cpu.mmu.observer is detector:
                cpu.mmu.observer = None


# ---------------------------------------------------------------------------
# The `repro-numa races` check
# ---------------------------------------------------------------------------


@dataclass
class RaceCheckReport:
    """Everything ``repro-numa races`` ran, with the 0/1/2 contract."""

    static: Optional[LintReport] = None
    guard_model: Optional[GuardModel] = None
    #: Per dynamic run: workload/profile/seed plus detector counters.
    runs: List[Dict[str, object]] = field(default_factory=list)
    #: Reports collected across all dynamic runs (clean tree → empty).
    races: List[RaceReport] = field(default_factory=list)
    #: Fixture name → whether the seeded race was caught.
    fixtures: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Clean static layer, no dynamic races, fixtures all caught."""
        if self.static is not None and not self.static.ok:
            return False
        if self.races:
            return False
        if self.fixtures and not all(self.fixtures.values()):
            return False
        return True

    @property
    def exit_code(self) -> int:
        """0 clean, 1 violations found (2 is reserved for usage errors)."""
        return 0 if self.ok else 1

    def format(self) -> str:
        """Human-readable multi-section summary."""
        sections: List[str] = []
        if self.static is not None:
            sections.append(self.static.format())
        if self.guard_model is not None:
            sections.append(self.guard_model.format())
        for run in self.runs:
            label = (
                f"dynamic: {run['workload']}/{run['profile']} "
                f"seed={run['seed']}: {run['reported']} race(s)"
            )
            sections.append(label)
        for race in self.races:
            sections.append(race.format())
        for name, caught in sorted(self.fixtures.items()):
            verdict = "caught" if caught else "MISSED"
            sections.append(f"fixture {name}: {verdict}")
        sections.append("races: OK" if self.ok else "races: FAILED")
        return "\n".join(sections)

    def as_records(self) -> List[Dict[str, object]]:
        """Flat records for ``--json`` sinks."""
        records: List[Dict[str, object]] = []
        if self.static is not None:
            records.extend(self.static.as_records())
        if self.guard_model is not None:
            records.extend(self.guard_model.as_records())
        for run in self.runs:
            records.append({"t": "race_run", **run})
        records.extend(r.as_record() for r in self.races)
        for name, caught in sorted(self.fixtures.items()):
            records.append(
                {"t": "race_fixture", "fixture": name, "caught": caught}
            )
        records.append({"t": "race_check_summary", "ok": self.ok})
        return records


def run_race_check(
    static: bool = True,
    dynamic: bool = True,
    fixtures: bool = True,
    workload: Optional[object] = None,
    profiles: Sequence[str] = ("none", "transient"),
    seed: int = 0,
    n_processors: int = 4,
    machine: Optional[str] = None,
) -> RaceCheckReport:
    """The full ``repro-numa races`` pass.

    *static* runs RN008 and RN010 over the package plus guard inference;
    *dynamic* runs the workload under each fault profile with a
    collecting detector attached (a clean tree reports zero races);
    *fixtures* runs the seeded synthetic races and asserts the detector
    catches both — a detector that cannot see a planted race proves
    nothing about a clean run.

    *machine* names a registry machine
    (:data:`~repro.machine.topology.MACHINE_REGISTRY`) for the dynamic
    runs, so the detector also observes the same-socket remote-mapping
    and page-table-update paths of multi-level machines; ``None`` is
    the flat ``"ace"``, the one machine that honours ``n_processors``.
    """
    from repro.machine.topology import resolve_machine

    report = RaceCheckReport()
    machine_config = resolve_machine(machine or "ace", n_processors)
    n_processors = machine_config.n_processors
    if static:
        from repro.check.lint import lint_races

        report.static = lint_races()
        report.guard_model = report.static.guard_model
    if dynamic:
        from repro.faults.chaos import run_chaos
        from repro.workloads.parmult import ParMult

        wl = workload if workload is not None else ParMult.small()
        for profile in profiles:
            detector = RaceDetector(raise_on_race=False)
            run_chaos(
                wl,  # type: ignore[arg-type]
                profile,
                seed=seed,
                n_processors=n_processors,
                sanitize=False,
                detector=detector,
                machine_config=machine_config,
            )
            report.runs.append(
                {
                    "workload": getattr(wl, "name", str(wl)),
                    "profile": profile,
                    "seed": seed,
                    **detector.counters(),
                    "reported": detector.reported,
                }
            )
            report.races.extend(detector.reports)
    if fixtures:
        from repro.check.fixtures import (
            run_missed_shootdown_fixture,
            run_unguarded_write_fixture,
        )

        unguarded = run_unguarded_write_fixture()
        shootdown = run_missed_shootdown_fixture()
        report.fixtures["unguarded-directory-write"] = any(
            r.kind == "unguarded-state-write" for r in unguarded.reports
        )
        report.fixtures["missed-shootdown"] = any(
            r.kind == "missed-shootdown" for r in shootdown.reports
        )
    return report
