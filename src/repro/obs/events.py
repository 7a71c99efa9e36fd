"""The engine's event bus: one publisher, any number of observers.

The engine used to carry a single ``observer`` slot, which made trace
collection and metrics mutually exclusive.  :class:`EventBus` fans each
event out to every subscribed observer, in subscription order, and keeps
per-hook subscriber lists so the engine can skip event construction
entirely when nobody is listening (the common case for the paper-scale
runs, where telemetry must not slow the simulator down).

Observers are duck-typed: subscribe any object and it receives exactly
the hooks it defines.  The legacy
:class:`~repro.sim.engine.EngineObserver` protocol (``on_reference`` and
``on_fault``) is a strict subset, so existing observers such as
:class:`~repro.analysis.tracing.TraceCollector` subscribe unchanged.

Hooks (all optional on an observer):

``on_reference(round_index, cpu, vpage, page_id, reads, writes,
location, writable_data)``
    A block of user references was issued.  The per-block hook: its
    listeners are the race detector and trace collectors (telemetry
    pulls its reference totals from the per-CPU counters at the end),
    and the engine calls them straight from its held list.
``on_fault(round_index, cpu, vpage, kind)``
    A page fault was taken (before handling).
``on_fault_resolved(round_index, cpu, vpage, kind, system_us)``
    The fault handler returned; ``system_us`` is the simulated system
    time the handling charged (the fault's simulated latency).
``on_round_end(round_index)``
    A scheduling round completed; called from the engine's held list.
``on_run_end(rounds)``
    The engine ran all threads to completion.
``on_transition(page_id, cpu, old_state, new_state, moved)``
    The NUMA manager moved a page to a new protocol state (the only
    legal way a :class:`~repro.core.state.PageState` changes); ``moved``
    is whether this transition was an ownership *move* in the paper's
    Section 2.3.2 sense.  ``cpu`` is the requesting processor, or ``-1``
    for transitions with no requester (page creation from a load image).
``on_page_freed(page_id)``
    A logical page left the directory; its protocol history is void.
``on_fault_injected(kind, cpu, page_id, sim_us)``
    The fault-injection layer (:mod:`repro.faults`) fired a fault:
    ``kind`` is the :class:`~repro.faults.plan.FaultKind` value
    (``"transfer-fail"``, ``"frame-fail"``, ``"message-delay"``,
    ``"pressure-spike"``), ``cpu``/``page_id`` identify the victim
    (``-1`` when not applicable), ``sim_us`` is the simulated time.
``on_recovery(action, cpu, page_id, detail)``
    The protocol completed a recovery path: ``action`` is one of
    ``"retry-succeeded"``, ``"degraded-to-global"``,
    ``"frame-offlined"``, ``"pressure-fallback"``; ``detail`` is a
    short human-readable string (attempt counts, frame names).

The experiment orchestrator (:mod:`repro.exp`) publishes nothing here:
a batch's progress, retries and quarantines are records in its
:class:`~repro.exp.journal.BatchJournal`, and host time never enters
the bus.

The protocol-level hooks are what the opt-in sanitizer
(:mod:`repro.check.sanitizer`) subscribes to, and the lint rule
``transition-event`` statically checks that every state-assigning site
in the NUMA manager reaches the ``emit_transition`` call.

The race detector (:mod:`repro.check.races`) subscribes to the same
bus — ``on_transition`` drives its shadow-state check, ``on_reference``
its missed-shootdown check — and additionally installs itself in three
observer slots the bus does not carry: the spin-lock observer list
(:func:`repro.threads.spinlock.add_lock_observer`, for lockset and
happens-before tracking) and the per-CPU ``SoftwareTLB.observer`` /
``MMU.observer`` attributes (for the TLB mirror that pairs MMU
mutations against their shootdowns).  Its ``races_*`` counters publish
into the standard :class:`~repro.obs.metrics.MetricsRegistry` alongside
the engine's own metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: Hook names the bus dispatches, in no particular order.
HOOKS: Tuple[str, ...] = (
    "on_reference",
    "on_fault",
    "on_fault_resolved",
    "on_round_end",
    "on_run_end",
    "on_transition",
    "on_page_freed",
    "on_fault_injected",
    "on_recovery",
)


class EventBus:
    """Fan-out dispatcher for engine events.

    Subscribers receive events in subscription order, which makes
    interleaved traces deterministic.  An observer is one subscriber
    per object, not per ``==`` class of objects.  The per-hook lists are
    created once and mutated in place by subscribe/unsubscribe, so a
    holder of a :meth:`hooks` list always sees the current subscribers:
    the engine holds ``on_reference``, ``on_round_end``, ``on_fault``
    and ``on_fault_resolved``, the NUMA manager ``on_transition``, and
    each tests or walks a list where it would emit.  References and
    round ends have no ``emit_*``: the engine calls those hooks itself.
    """

    def __init__(self, observers: Optional[List[object]] = None) -> None:
        self._observers: List[object] = []
        self._hooks: Dict[str, List[Callable]] = {name: [] for name in HOOKS}
        for observer in observers or []:
            self.subscribe(observer)

    # -- subscription --------------------------------------------------------

    def _position(self, observer: object) -> Optional[int]:
        """Where *observer* itself — not an ``==`` one — is subscribed."""
        for index, known in enumerate(self._observers):
            if known is observer:
                return index
        return None

    def subscribe(self, observer: object) -> object:
        """Register *observer* for every hook it defines; returns it."""
        if observer is None:
            raise ValueError("cannot subscribe None to the event bus")
        if self._position(observer) is not None:
            return observer
        self._observers.append(observer)
        for name in HOOKS:
            hook = getattr(observer, name, None)
            if callable(hook):
                self._hooks[name].append(hook)
        return observer

    def unsubscribe(self, observer: object) -> None:
        """Remove *observer*; unknown observers are ignored."""
        index = self._position(observer)
        if index is None:
            return
        del self._observers[index]
        for name in HOOKS:
            hook = getattr(observer, name, None)
            if callable(hook) and hook in self._hooks[name]:
                self._hooks[name].remove(hook)

    @property
    def observers(self) -> List[object]:
        """Subscribed observers, in subscription order."""
        return list(self._observers)

    def __len__(self) -> int:
        return len(self._observers)

    # -- fast-path guards ----------------------------------------------------
    # The engine checks these before building event payloads, so an
    # unobserved run does no telemetry work at all.

    @property
    def wants_references(self) -> bool:
        """Whether any observer handles ``on_reference``."""
        return bool(self._hooks["on_reference"])

    def hooks(self, name: str) -> List[Callable]:
        """The live subscriber list of hook *name* (do not mutate): a
        subscription made mid-run is in it at the holder's next test."""
        return self._hooks[name]

    @property
    def wants_faults(self) -> bool:
        """Whether any observer handles ``on_fault``."""
        return bool(self._hooks["on_fault"])

    @property
    def wants_fault_latency(self) -> bool:
        """Whether any observer handles ``on_fault_resolved``."""
        return bool(self._hooks["on_fault_resolved"])

    @property
    def wants_rounds(self) -> bool:
        """Whether any observer handles ``on_round_end``."""
        return bool(self._hooks["on_round_end"])

    @property
    def wants_fault_injections(self) -> bool:
        """Whether any observer handles ``on_fault_injected``."""
        return bool(self._hooks["on_fault_injected"])

    @property
    def wants_recoveries(self) -> bool:
        """Whether any observer handles ``on_recovery``."""
        return bool(self._hooks["on_recovery"])

    # -- dispatch ------------------------------------------------------------

    def emit_fault(self, *args) -> None:
        """Fan out one fault."""
        for hook in self._hooks["on_fault"]:
            hook(*args)

    def emit_fault_resolved(self, *args) -> None:
        """Fan out one fault resolution with its simulated latency."""
        for hook in self._hooks["on_fault_resolved"]:
            hook(*args)

    def emit_run_end(self, rounds: int) -> None:
        """Fan out run completion."""
        for hook in self._hooks["on_run_end"]:
            hook(rounds)

    def emit_transition(
        self, page_id: int, cpu: int, old_state, new_state, moved: bool
    ) -> None:
        """Fan out one protocol state transition."""
        for hook in self._hooks["on_transition"]:
            hook(page_id, cpu, old_state, new_state, moved)

    def emit_page_freed(self, page_id: int) -> None:
        """Fan out the removal of a page from the directory."""
        for hook in self._hooks["on_page_freed"]:
            hook(page_id)

    def emit_fault_injected(
        self, kind: str, cpu: int, page_id: int, sim_us: float
    ) -> None:
        """Fan out one injected fault."""
        for hook in self._hooks["on_fault_injected"]:
            hook(kind, cpu, page_id, sim_us)

    def emit_recovery(
        self, action: str, cpu: int, page_id: int, detail: str
    ) -> None:
        """Fan out one completed recovery path."""
        for hook in self._hooks["on_recovery"]:
            hook(action, cpu, page_id, detail)
