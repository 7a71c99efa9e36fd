"""The event bus: subscription, fan-out, and fast-path guards."""

from dataclasses import dataclass, field

import pytest

from repro.core.state import AccessKind
from repro.machine.timing import MemoryLocation
from repro.obs.events import EventBus


class Recorder:
    """Observer implementing every hook, recording call order."""

    def __init__(self, name="r"):
        self.name = name
        self.calls = []

    def on_reference(self, *args):
        self.calls.append(("ref", args))

    def on_fault(self, *args):
        self.calls.append(("fault", args))

    def on_fault_resolved(self, *args):
        self.calls.append(("resolved", args))

    def on_round_end(self, round_index):
        self.calls.append(("round", round_index))

    def on_run_end(self, rounds):
        self.calls.append(("run_end", rounds))


@dataclass
class RoundLog:
    """A value-compared observer: two fresh ones are ``==``."""

    rounds: list = field(default_factory=list)

    def on_round_end(self, round_index):
        self.rounds.append(round_index)


class FaultsOnly:
    """Observer subscribing to a single hook."""

    def __init__(self):
        self.faults = []

    def on_fault(self, round_index, cpu, vpage, kind):
        self.faults.append((round_index, cpu, vpage, kind))


def deliver(bus, name, *args):
    """Fan one event out as the engine does: over the held hook list."""
    for hook in bus.hooks(name):
        hook(*args)


class TestSubscription:
    def test_empty_bus_wants_nothing(self):
        bus = EventBus()
        assert not bus.wants_references
        assert not bus.wants_faults
        assert not bus.wants_fault_latency
        assert not bus.wants_rounds
        assert len(bus) == 0

    def test_partial_observer_only_registers_its_hooks(self):
        bus = EventBus()
        bus.subscribe(FaultsOnly())
        assert bus.wants_faults
        assert not bus.wants_references
        assert not bus.wants_rounds

    def test_subscribe_returns_observer(self):
        bus = EventBus()
        observer = Recorder()
        assert bus.subscribe(observer) is observer

    def test_double_subscribe_is_idempotent(self):
        bus = EventBus()
        observer = Recorder()
        bus.subscribe(observer)
        bus.subscribe(observer)
        deliver(bus, "on_round_end", 3)
        assert observer.calls == [("round", 3)]

    def test_subscribe_none_rejected(self):
        with pytest.raises(ValueError):
            EventBus().subscribe(None)

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        observer = Recorder()
        bus.subscribe(observer)
        bus.unsubscribe(observer)
        deliver(bus, "on_round_end", 1)
        assert observer.calls == []
        assert not bus.wants_rounds

    def test_unsubscribe_unknown_is_noop(self):
        EventBus().unsubscribe(Recorder())

    def test_constructor_accepts_observers(self):
        observer = Recorder()
        bus = EventBus([observer])
        assert bus.observers == [observer]

    def test_equal_observers_are_two_subscribers(self):
        """Two fresh dataclass observers compare equal; each still hears."""
        bus = EventBus()
        first, second = RoundLog(), RoundLog()
        assert first == second
        bus.subscribe(first)
        bus.subscribe(second)
        deliver(bus, "on_round_end", 4)
        assert len(bus) == 2
        assert first.rounds == second.rounds == [4]

    def test_unsubscribe_removes_that_observer_not_an_equal_one(self):
        bus = EventBus()
        first, second = RoundLog(), RoundLog()
        bus.subscribe(first)
        bus.subscribe(second)
        bus.unsubscribe(second)
        assert len(bus) == 1 and bus.observers[0] is first
        deliver(bus, "on_round_end", 2)
        assert (first.rounds, second.rounds) == ([2], [])


class TestFanOut:
    def test_events_reach_all_observers_in_subscription_order(self):
        bus = EventBus()
        first, second = Recorder("a"), Recorder("b")
        order = []
        first.on_fault = lambda *a: order.append("a")
        second.on_fault = lambda *a: order.append("b")
        bus.subscribe(first)
        bus.subscribe(second)
        bus.emit_fault(0, 1, 2, AccessKind.READ)
        assert order == ["a", "b"]

    def test_reference_payload_passed_through(self):
        bus = EventBus()
        observer = Recorder()
        bus.subscribe(observer)
        deliver(
            bus, "on_reference", 5, 1, 10, 42, 3, 2, MemoryLocation.LOCAL, True
        )
        assert observer.calls == [
            ("ref", (5, 1, 10, 42, 3, 2, MemoryLocation.LOCAL, True))
        ]

    def test_fault_resolved_payload(self):
        bus = EventBus()
        observer = Recorder()
        bus.subscribe(observer)
        bus.emit_fault_resolved(2, 0, 7, AccessKind.WRITE, 123.5)
        assert observer.calls == [
            ("resolved", (2, 0, 7, AccessKind.WRITE, 123.5))
        ]

    def test_run_end(self):
        bus = EventBus()
        observer = Recorder()
        bus.subscribe(observer)
        bus.emit_run_end(17)
        assert observer.calls == [("run_end", 17)]

    def test_observer_without_hook_skipped(self):
        bus = EventBus()
        faults_only = FaultsOnly()
        bus.subscribe(faults_only)
        deliver(
            bus, "on_reference", 0, 0, 0, 0, 1, 0, MemoryLocation.GLOBAL, False
        )
        bus.emit_fault(4, 2, 9, AccessKind.WRITE)
        assert faults_only.faults == [(4, 2, 9, AccessKind.WRITE)]
