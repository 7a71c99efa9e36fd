"""The fault injector: fires planned faults and books the recoveries.

:class:`FaultInjector` sits between the :class:`~repro.faults.plan.FaultPlan`
(pure decisions) and the protocol layers that consult it (the NUMA
manager's retry envelope, pmap's copy path, the engine's periodic pump).
It owns the :class:`FaultStats` recovery ledger and announces every
injected fault and completed recovery on the run's event bus as
``on_fault_injected`` / ``on_recovery`` events, which is how the PR 1
telemetry stack and the PR 2 sanitizer observe chaos runs.

Everything here runs on simulated time; the injector never reads the
wall clock and never draws randomness of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.faults.plan import PROFILES, FaultKind, FaultPlan

if TYPE_CHECKING:
    from repro.machine.machine import Machine
    from repro.machine.memory import Frame
    from repro.obs.events import EventBus


@dataclass(frozen=True)
class RetryPolicy:
    """The retry envelope around block transfers.

    ``backoff_us(attempt)`` doubles from ``backoff_base_us`` and caps at
    ``backoff_cap_us``; the charge lands on the acting processor's
    *system* time, so chaos runs pay for their retries in the same
    currency Table 4 measures.  After ``max_attempts`` failed attempts
    the manager degrades the page to pinned-global instead (the paper's
    own fallback mechanism).  ``degraded_cost_factor`` scales the cost
    of the always-succeeding slow path used when data must still move
    (syncing a dirty page whose fast transfers keep failing).
    """

    max_attempts: int = 4
    backoff_base_us: float = 50.0
    backoff_cap_us: float = 400.0
    degraded_cost_factor: float = 4.0

    def backoff_us(self, attempt: int) -> float:
        """Backoff charge after the (1-based) *attempt*-th failure."""
        return min(
            self.backoff_base_us * (2.0 ** (attempt - 1)),
            self.backoff_cap_us,
        )


@dataclass
class FaultStats:
    """The recovery ledger one chaos run reports."""

    #: Faults injected, by :class:`FaultKind` value.
    injected: Dict[str, int] = field(
        default_factory=lambda: {kind.value: 0 for kind in FaultKind}
    )
    #: Failed transfer attempts that were retried.
    transfer_retries: int = 0
    #: Transfers that eventually succeeded after at least one retry.
    retry_successes: int = 0
    #: Retry envelopes that exhausted their attempts and degraded.
    degradations: int = 0
    #: Pages pinned in global memory by the degradation fallback.
    pages_pinned_by_fallback: int = 0
    #: Local frames taken offline by permanent failures.
    frames_offlined: int = 0
    #: Pages invalidated off a failed frame (re-faulted from global).
    pages_refaulted: int = 0
    #: LOCAL decisions downgraded to GLOBAL by a pressure spike.
    pressure_fallbacks: int = 0
    #: Directory operations delayed.
    message_delays: int = 0
    #: Simulated µs of injected delay + retry backoff charged.
    injected_delay_us: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat, deterministically ordered view for reports and JSON."""
        record: Dict[str, object] = {
            f"injected_{kind.value.replace('-', '_')}": self.injected[
                kind.value
            ]
            for kind in FaultKind
        }
        record.update(
            {
                "transfer_retries": self.transfer_retries,
                "retry_successes": self.retry_successes,
                "degradations": self.degradations,
                "pages_pinned_by_fallback": self.pages_pinned_by_fallback,
                "frames_offlined": self.frames_offlined,
                "pages_refaulted": self.pages_refaulted,
                "pressure_fallbacks": self.pressure_fallbacks,
                "message_delays": self.message_delays,
                "injected_delay_us": round(self.injected_delay_us, 3),
            }
        )
        return record


class FaultInjector:
    """Fires a :class:`FaultPlan` against one simulation."""

    def __init__(
        self,
        plan: FaultPlan,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = FaultStats()
        self._machine: Optional["Machine"] = None
        self._bus: Optional["EventBus"] = None
        #: Per-CPU simulated time until which allocation pressure lasts.
        self._pressure_until: Dict[int, float] = {}

    @property
    def plan(self) -> FaultPlan:
        """The schedule this injector executes."""
        return self._plan

    @property
    def wants_pump(self) -> bool:
        """Whether :meth:`pump` still has scheduled faults to fire."""
        return self._plan.wants_pump

    def bind(self, machine: "Machine", bus: "EventBus") -> None:
        """Attach the injector to a built simulation's machine and bus."""
        self._machine = machine
        self._bus = bus

    # -- event plumbing ---------------------------------------------------

    def _emit_injected(
        self, kind: FaultKind, cpu: int, page_id: int, sim_us: float
    ) -> None:
        self.stats.injected[kind.value] += 1
        bus = self._bus
        if bus is not None and bus.wants_fault_injections:
            bus.emit_fault_injected(kind.value, cpu, page_id, sim_us)

    def _emit_recovery(
        self, action: str, cpu: int, page_id: int, detail: str
    ) -> None:
        bus = self._bus
        if bus is not None and bus.wants_recoveries:
            bus.emit_recovery(action, cpu, page_id, detail)

    # -- transfer faults (consulted by the NUMA manager) ------------------

    def transfer_attempt_fails(
        self, page_id: int, cpu: int, now_fn: Callable[[], float]
    ) -> bool:
        """Whether the next block-transfer attempt for *page_id* fails.

        ``now_fn`` is only evaluated when a fault actually fires — the
        current simulated time is a ``max`` over every CPU's charged
        time, too expensive to compute on the (overwhelmingly common)
        no-fault path.
        """
        if not self._plan.transfer_fails():
            return False
        self._emit_injected(FaultKind.TRANSFER_FAIL, cpu, page_id, now_fn())
        return True

    def note_retry(self, page_id: int, cpu: int, backoff_us: float) -> None:
        """A failed transfer attempt was retried after *backoff_us*."""
        self.stats.transfer_retries += 1
        self.stats.injected_delay_us += backoff_us

    def note_retry_success(
        self, page_id: int, cpu: int, attempts: int
    ) -> None:
        """A transfer succeeded after *attempts* failed attempts."""
        self.stats.retry_successes += 1
        self._emit_recovery(
            "retry-succeeded", cpu, page_id, f"after {attempts} retries"
        )

    def note_degraded(self, page_id: int, cpu: int, pinned: bool) -> None:
        """The retry envelope gave up and the page degraded to global."""
        self.stats.degradations += 1
        if pinned:
            self.stats.pages_pinned_by_fallback += 1
        self._emit_recovery(
            "degraded-to-global",
            cpu,
            page_id,
            "pinned by fallback" if pinned else "served from global",
        )

    # -- directory-message delays -----------------------------------------

    def directory_delay_us(
        self, cpu: int, page_id: int, now_fn: Callable[[], float]
    ) -> float:
        """Extra µs to charge this directory operation (0 = no delay).

        ``now_fn`` is only evaluated when a delay fires (see
        :meth:`transfer_attempt_fails`).
        """
        delay = self._plan.message_delay()
        if delay > 0.0:
            self._emit_injected(
                FaultKind.MESSAGE_DELAY, cpu, page_id, now_fn()
            )
            self.stats.message_delays += 1
            self.stats.injected_delay_us += delay
        return delay

    # -- local-memory pressure --------------------------------------------

    @property
    def pressure_possible(self) -> bool:
        """Whether any pressure window has ever opened (cheap pre-check)."""
        return bool(self._pressure_until)

    def pressure_active(self, cpu: int, now_us: float) -> bool:
        """Whether *cpu*'s local memory is under an injected spike."""
        return self._pressure_until.get(cpu, 0.0) > now_us

    def note_pressure_fallback(self, cpu: int, page_id: int) -> None:
        """A LOCAL decision fell back to GLOBAL under pressure."""
        self.stats.pressure_fallbacks += 1
        self._emit_recovery(
            "pressure-fallback", cpu, page_id, "placed in global"
        )

    # -- frame failures / the engine pump ---------------------------------

    def frame_recovered(
        self, frame: "Frame", page_id: int, refaulted: bool
    ) -> None:
        """The manager finished recovering from a frame failure."""
        self.stats.frames_offlined += 1
        if refaulted:
            self.stats.pages_refaulted += 1
        cpu = frame.node if frame.node is not None else -1
        self._emit_recovery(
            "frame-offlined",
            cpu,
            page_id,
            f"{frame} retired"
            + ("; resident page invalidated" if refaulted else ""),
        )

    def pump(self, now_us: float, numa) -> None:
        """Fire time-scheduled faults due at *now_us*.

        Called by the engine at policy-tick granularity.  Frame failures
        pick a deterministic victim among the currently allocated local
        frames (sorted by node and index) and hand recovery to
        :meth:`NUMAManager.handle_frame_failure`; pressure spikes open a
        per-CPU window the manager's frame-allocation path consults.
        """
        machine = self._machine
        if machine is None:
            return
        while self._plan.frame_failure_due(now_us):
            # Prefer a frame that holds a page (the interesting case:
            # recovery must invalidate and re-fault it); an idle machine
            # still loses a free frame, as real ECC failures would.
            candidates = machine.memory.allocated_local_frames()
            if not candidates:
                candidates = machine.memory.online_local_frames()
            if not candidates:
                break
            frame = self._plan.choose(candidates)
            node = frame.node if frame.node is not None else -1
            self._emit_injected(FaultKind.FRAME_FAIL, node, -1, now_us)
            numa.handle_frame_failure(frame, acting_cpu=0)
        if self._plan.pressure_due(now_us):
            cpu = self._plan.choose(machine.config.cpus)
            self._pressure_until[cpu] = (
                now_us + self._plan.profile.pressure_duration_us
            )
            self._emit_injected(FaultKind.PRESSURE_SPIKE, cpu, -1, now_us)


def make_injector(
    profile_name: str, seed: int = 0, retry: Optional[RetryPolicy] = None
) -> FaultInjector:
    """Build an injector for a named profile (the CLI's entry point)."""
    return FaultInjector(
        FaultPlan(PROFILES.resolve(profile_name), seed), retry
    )
