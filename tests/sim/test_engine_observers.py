"""Engine observation: the event bus and the ``observer=`` convenience."""

import sys

from repro.analysis.tracing import TraceCollector
from repro.check.races import RaceDetector, detach_detector
from repro.check.sanitizer import attach_sanitizer
from repro.core.state import AccessKind
from repro.exp.spec import RunSpec
from repro.obs.events import EventBus
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Engine
from repro.sim.ops import Compute, MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.threads.spinlock import remove_lock_observer
from repro.vm.vm_object import shared_object
from tests.conftest import make_rig
from tests.sim.test_engine_fastpath import ReferenceLog


def run_engine(rig, bodies, **kwargs):
    engine = Engine(
        rig.machine,
        rig.faults,
        AffinityScheduler(rig.machine.n_cpus),
        **kwargs,
    )
    threads = [
        CThread(name=f"t{i}", index=i, body=body)
        for i, body in enumerate(bodies)
    ]
    engine.run(threads)
    return engine


class RoundWatcher:
    def __init__(self):
        self.rounds = []
        self.run_end = None

    def on_round_end(self, round_index):
        self.rounds.append(round_index)

    def on_run_end(self, rounds):
        self.run_end = rounds


class TestLegacyObserverCompat:
    """The ``observer=`` kwarg subscribes one observer to the bus."""

    def test_legacy_observer_still_sees_references_and_faults(self):
        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 1))
        trace = TraceCollector()
        run_engine(
            rig,
            [iter([MemBlock(region.vpage_at(0), reads=4, writes=2)])],
            observer=trace,
        )
        assert len(trace.events) == 2  # one read block, one write block
        assert len(trace.faults) >= 1
        assert trace.events[0].reads == 4

    def test_legacy_observer_lands_on_the_bus(self):
        rig = make_rig()
        trace = TraceCollector()
        engine = run_engine(rig, [iter([Compute(1.0)])], observer=trace)
        assert trace in engine.bus.observers

    def test_legacy_observer_composes_with_bus_subscribers(self):
        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 1))
        legacy = TraceCollector()
        second = TraceCollector()
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            observer=legacy,
        )
        engine.add_observer(second)
        threads = [
            CThread(
                name="t0",
                index=0,
                body=iter([MemBlock(region.vpage_at(0), reads=3)]),
            )
        ]
        engine.run(threads)
        assert len(legacy.events) == len(second.events) == 1
        assert legacy.events[0].reads == second.events[0].reads == 3


class TestBusEvents:
    def test_round_end_emitted_per_round(self):
        rig = make_rig()
        watcher = RoundWatcher()
        engine = run_engine(
            rig,
            [iter([Compute(1.0), Compute(1.0)])],
            bus=EventBus([watcher]),
        )
        assert watcher.rounds == list(range(engine.rounds))

    def test_run_end_reports_round_count(self):
        rig = make_rig()
        watcher = RoundWatcher()
        engine = run_engine(
            rig, [iter([Compute(1.0)])], bus=EventBus([watcher])
        )
        assert watcher.run_end == engine.rounds

    def test_run_end_emitted_for_empty_thread_list(self):
        rig = make_rig()
        watcher = RoundWatcher()
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            bus=EventBus([watcher]),
        )
        assert engine.run([]) == 0
        assert watcher.run_end == 0

    def test_fault_resolved_carries_simulated_latency(self):
        rig = make_rig()

        class LatencyWatcher:
            def __init__(self):
                self.latencies = []

            def on_fault_resolved(
                self, round_index, cpu, vpage, kind, system_us
            ):
                self.latencies.append(system_us)

        watcher = LatencyWatcher()
        region = rig.space.map_object(shared_object("d", 1))
        run_engine(
            rig,
            [iter([MemBlock(region.vpage_at(0), reads=1)])],
            bus=EventBus([watcher]),
        )
        assert watcher.latencies, "first touch must fault"
        assert all(latency > 0 for latency in watcher.latencies)

    def test_unobserved_run_has_empty_bus(self):
        rig = make_rig()
        engine = run_engine(rig, [iter([Compute(1.0)])])
        assert len(engine.bus) == 0


class TestSubscribedMidRound:
    """Both arms ask the bus's live ``on_reference`` list per block, so
    an observer subscribed from a thread body is heard from the very next
    block — by the TLB-hit arm exactly as by the slow arm."""

    def events(self, fast_path):
        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 2))
        mine, theirs = region.vpage_at(0), region.vpage_at(1)
        log = ReferenceLog()
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            fast_path=fast_path,
        )

        def subscriber():
            yield MemBlock(mine, reads=1)  # the miss that fills the TLB
            yield MemBlock(mine, reads=2)
            engine.add_observer(log)  # round 2 is already under way
            yield MemBlock(mine, reads=3)
            yield MemBlock(mine, reads=4)

        def bystander():
            for reads in (10, 20, 30, 40):
                yield MemBlock(theirs, reads=reads)

        engine.run(
            [
                CThread(name=f"t{i}", index=i, body=body)
                for i, body in enumerate((subscriber(), bystander()))
            ]
        )
        assert not fast_path or rig.machine.tlb_counters()["hits"] == 6
        return log.events

    def test_the_fast_arm_hears_what_the_slow_arm_hears(self):
        fast, slow = self.events(True), self.events(False)
        assert fast == slow
        assert [(e[0], e[1], e[4]) for e in fast] == [
            (2, 0, 3), (2, 1, 30), (3, 0, 4), (3, 1, 40),
        ]

    def test_reference_hooks_is_the_live_list(self):
        bus = EventBus()
        held = bus.hooks("on_reference")
        assert not held and not bus.wants_references
        log = bus.subscribe(ReferenceLog())
        assert held and held is bus.hooks("on_reference")
        assert bus.wants_references
        bus.unsubscribe(log)
        assert not held


class ProtocolLog:
    """Keeps the faults, resolutions and transitions it hears, with
    virtual pages named by their offset in the test's region."""

    def __init__(self, names):
        self.names = names
        self.events = []

    def on_fault(self, round_index, cpu, vpage, kind):
        self.events.append(
            ("fault", round_index, cpu, self.names[vpage], kind.value)
        )

    def on_fault_resolved(self, round_index, cpu, vpage, kind, system_us):
        self.events.append(
            ("resolved", round_index, cpu, self.names[vpage], kind.value)
        )

    def on_transition(self, page_id, cpu, old_state, new_state, moved):
        self.events.append(
            ("transition", cpu, old_state.value, new_state.value, moved)
        )


class TestHeldProtocolHooks:
    """The engine holds the bus's live ``on_fault`` and
    ``on_fault_resolved`` lists and the NUMA manager its ``on_transition``
    list, so a subscription made mid-run — from a thread body or from
    another hook — is heard at the next event and an unsubscription
    stops them.  Every expected value was recorded with the per-fault
    ``wants_*`` properties the two layers asked before they held the
    lists."""

    def run(self, bodies_for, subscribe=()):
        """Run ``bodies_for(engine, log, names, a, b)`` on a 2-page region
        with the NUMA manager on the engine's bus; returns the log."""
        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 2))
        a, b = region.vpage_at(0), region.vpage_at(1)
        log = ProtocolLog({a: "a", b: "b"})
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            bus=EventBus(list(subscribe)),
        )
        rig.numa.bus = engine.bus
        threads = [
            CThread(name=f"t{i}", index=i, body=body)
            for i, body in enumerate(bodies_for(engine, log, a, b))
        ]
        engine.run(threads)
        return log.events

    def test_a_subscriber_added_from_a_thread_body_hears_the_next_fault(
        self,
    ):
        def bodies(engine, log, a, b):
            def writer():
                yield MemBlock(a, writes=1)
                engine.add_observer(log)
                yield MemBlock(b, reads=1, writes=1)

            def reader():
                yield Compute(1.0)
                yield Compute(1.0)
                yield MemBlock(a, reads=1)

            return writer(), reader()

        assert self.run(bodies) == [
            ("fault", 1, 0, "b", "read"),
            ("transition", 0, "untouched", "read-only", False),
            ("resolved", 1, 0, "b", "read"),
            ("fault", 1, 0, "b", "write"),
            ("transition", 0, "read-only", "local-writable", False),
            ("resolved", 1, 0, "b", "write"),
            ("fault", 2, 1, "a", "read"),
            ("transition", 1, "local-writable", "read-only", False),
            ("resolved", 2, 1, "a", "read"),
        ]

    def test_a_subscriber_added_from_a_fault_hook_hears_that_fault(self):
        class Recruiter:
            def __init__(self):
                self.bus = self.recruit = None

            def on_fault(self, *event):
                if self.recruit is not None:
                    self.bus.subscribe(self.recruit)
                    self.recruit = None

        recruiter = Recruiter()

        def bodies(engine, log, a, b):
            def body():
                yield MemBlock(a, reads=1)
                recruiter.bus, recruiter.recruit = engine.bus, log
                yield MemBlock(b, writes=1)
                yield MemBlock(a, writes=1)

            return (body(),)

        assert self.run(bodies, subscribe=[recruiter]) == [
            ("fault", 1, 0, "b", "write"),
            ("transition", 0, "untouched", "local-writable", False),
            ("resolved", 1, 0, "b", "write"),
            ("fault", 2, 0, "a", "write"),
            ("transition", 0, "read-only", "local-writable", False),
            ("resolved", 2, 0, "a", "write"),
        ]

    def test_an_unsubscribe_stops_the_events(self):
        def bodies(engine, log, a, b):
            engine.add_observer(log)

            def body():
                yield MemBlock(a, writes=1)
                engine.bus.unsubscribe(log)
                yield MemBlock(b, writes=1)

            return (body(),)

        assert self.run(bodies) == [
            ("fault", 0, 0, "a", "write"),
            ("transition", 0, "untouched", "local-writable", False),
            ("resolved", 0, 0, "a", "write"),
        ]

    def test_a_bus_assigned_after_construction_hears_transitions(self):
        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 2))
        a, b = region.vpage_at(0), region.vpage_at(1)
        first, second = ProtocolLog({}), ProtocolLog({})
        rig.faults.handle(0, a, AccessKind.WRITE)
        rig.numa.bus = EventBus([first])
        rig.faults.handle(1, a, AccessKind.READ)
        rig.numa.bus = EventBus([second])
        rig.faults.handle(1, b, AccessKind.WRITE)
        rig.numa.bus = None
        rig.faults.handle(0, b, AccessKind.WRITE)
        assert first.events == [
            ("transition", 1, "local-writable", "read-only", False),
        ]
        assert second.events == [
            ("transition", 1, "untouched", "local-writable", False),
        ]


#: The ledger's three ``observed`` specs at a twentieth of their size.
OBSERVED_SPECS = (
    RunSpec(
        "ParMult",
        {"total_mults": 8_000, "chunk_mults": 2},
        policy="move-threshold",
        threshold=4,
        n_processors=4,
    ),
    RunSpec(
        "ParMult",
        {"total_mults": 350, "chunk_mults": 2},
        policy="all-local",
        n_processors=4,
    ),
    RunSpec(
        "PlyTrace",
        {"n_polygons": 100, "padded_framebuffer": False},
        policy="move-threshold",
        threshold=4,
        n_processors=4,
    ),
)

#: Python-level calls a run makes per reference event *because* someone
#: listens to references — telemetry, sanitizer and race detector
#: attached, against the same run with every ``on_reference`` taken off
#: — over ``OBSERVED_SPECS`` together.  A ratchet like
#: ``tests/vm/test_fault.py::MAX_CALLS_PER_FAULT``: a count, exactly
#: repeatable, and it may only be lowered.  It read 9.1 while telemetry
#: counted every block and the engine looked the page id up per event
#: (DESIGN.md §7, §10.2), and 2.15 while each event went through
#: ``EventBus.emit_reference``.  It reads 1.15 on CPython 3.10–3.13 now
#: that the engine calls the held hooks itself: the detector's hook on a
#: TLB hit, three lookups more on a miss.  The ceiling is that plus 0.3.
MAX_CALLS_PER_REFERENCE_EVENT = 1.45

#: Python-level calls per executed op under ``Engine.run`` with all three
#: observers attached, over ``OBSERVED_SPECS`` together: what observing
#: costs the dispatch loop in all, hooks included.  It read 15.69 on
#: CPython 3.10 and 3.11 (15.58 on 3.12 and 3.13) while reference and
#: round-end events went through the bus's emit methods, profiler spans
#: were added per block and fault latencies summed CPU properties, and
#: 10.60 (10.51 on 3.12 and 3.13) without them.  It reads 9.16 on
#: CPython 3.11 (3.10, 3.12 and 3.13 unmeasured) now that a hit adds to
#: the CPU clock in place: ``next_op`` with its generator step, the TLB
#: lookup and the hooks that listen.  The ceiling is that plus 0.3.
MAX_OBSERVED_CALLS_PER_OP = 9.46


def observed_run_calls(spec):
    """(Python-level calls under ``Engine.run``, reference events heard,
    classes that listened, ops executed) for *spec* with everything
    attached."""
    sim = spec.build(telemetry=Telemetry())
    sanitizer = attach_sanitizer(sim.numa, sim.engine.bus, races=True)
    # Counted where they land, since the engine hands each event to the
    # detector's hook directly; taking the hook off leaves no code to see.
    heard = RaceDetector.__dict__.get("on_reference")
    heard = heard.__code__ if heard is not None else None
    calls = events = 0

    def count(frame, event, arg):
        nonlocal calls, events
        if event == "call":
            calls += 1
            events += frame.f_code is heard

    sys.setprofile(count)
    try:
        sim.engine.run(sim.threads)
    finally:
        sys.setprofile(None)
        remove_lock_observer(sanitizer)
        detach_detector(sanitizer.races, sim.machine)
    listeners = {
        type(observer)
        for observer in sim.engine.bus.observers
        if hasattr(observer, "on_reference")
    }
    return calls, events, listeners, sim.engine.ops_executed


def test_reference_event_call_ratchet(monkeypatch):
    heard = [observed_run_calls(spec) for spec in OBSERVED_SPECS]
    listeners = set().union(*(run[2] for run in heard))
    assert listeners == {RaceDetector}
    monkeypatch.delattr(RaceDetector, "on_reference")
    deaf = [observed_run_calls(spec) for spec in OBSERVED_SPECS]
    assert not any(events or classes for _, events, classes, _ in deaf)
    events = sum(run[1] for run in heard)
    calls = sum(run[0] for run in heard) - sum(run[0] for run in deaf)
    assert events > 5_000
    print(f"{calls / events:.2f} Python calls per reference event")
    assert calls / events <= MAX_CALLS_PER_REFERENCE_EVENT


def test_observed_dispatch_call_ratchet():
    runs = [observed_run_calls(spec) for spec in OBSERVED_SPECS]
    calls = sum(run[0] for run in runs)
    ops = sum(run[3] for run in runs)
    assert ops == 8_856
    print(f"{calls / ops:.2f} Python calls per observed op")
    assert calls / ops <= MAX_OBSERVED_CALLS_PER_OP
