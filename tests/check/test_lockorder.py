"""Lock-order checker: acquisition graph and cycle detection."""

import pytest

from repro.check.lockorder import LockOrderChecker
from repro.errors import ProtocolViolation


class TestAcquisitionGraph:
    def test_nested_acquire_adds_edge(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 10)
        c.on_lock_acquire("t1", 20)
        assert c.edges() == {10: {20}}
        assert c.witness(10, 20) == "t1"

    def test_sequential_acquires_add_no_edge(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 10)
        c.on_lock_release("t1", 10)
        c.on_lock_acquire("t1", 20)
        assert c.edges() == {}

    def test_reentrant_acquire_is_not_a_self_edge(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 10)
        c.on_lock_acquire("t1", 10)
        assert c.edges() == {}

    def test_release_unwinds_most_recent_matching(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 10)
        c.on_lock_acquire("t1", 10)
        c.on_lock_release("t1", 10)
        assert c.held_by("t1") == [10]
        c.on_lock_release("t1", 10)
        assert c.held_by("t1") == []

    def test_release_of_unheld_lock_is_ignored(self):
        c = LockOrderChecker()
        c.on_lock_release("t1", 99)
        assert c.held_by("t1") == []

    def test_holders_are_independent(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 10)
        c.on_lock_acquire("t2", 20)
        # t2 holds only 20, so no 10 -> 20 edge exists.
        assert c.edges() == {}
        assert c.held_by("t1") == [10]
        assert c.held_by("t2") == [20]


class TestCycleDetection:
    def test_consistent_order_has_no_cycle(self):
        c = LockOrderChecker()
        for thread in ("t1", "t2", "t3"):
            c.on_lock_acquire(thread, 10)
            c.on_lock_acquire(thread, 20)
            c.on_lock_release(thread, 20)
            c.on_lock_release(thread, 10)
        assert c.find_cycle() is None
        c.check()  # no raise

    def test_abba_cycle_detected(self):
        c = LockOrderChecker()
        # t1: A then B; t2: B then A -- the classic ordering violation.
        c.on_lock_acquire("t1", 10)
        c.on_lock_acquire("t1", 20)
        c.on_lock_release("t1", 20)
        c.on_lock_release("t1", 10)
        c.on_lock_acquire("t2", 20)
        c.on_lock_acquire("t2", 10)
        cycle = c.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {10, 20}

    def test_check_raises_structured_violation(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 10)
        c.on_lock_acquire("t1", 20)
        c.on_lock_release("t1", 20)
        c.on_lock_release("t1", 10)
        c.on_lock_acquire("t2", 20)
        c.on_lock_acquire("t2", 10)
        trail = ({"t": "lock_acquire", "vpage": 10},)
        with pytest.raises(ProtocolViolation) as exc:
            c.check(events=trail)
        violation = exc.value
        assert violation.check == "lock-order"
        # The caller's trail survives, followed by one lock_edge event
        # per edge of the cycle carrying the acquisition sites.
        assert violation.events[: len(trail)] == trail
        edge_events = violation.events[len(trail):]
        assert edge_events
        for event in edge_events:
            assert event["t"] == "lock_edge"
            assert event["outer_site"].startswith("test_lockorder.py:")
            assert event["inner_site"].startswith("test_lockorder.py:")
        cycle = violation.details["cycle"]
        assert cycle[0] == cycle[-1]
        # Each edge of the cycle names the thread that created it and
        # the file:line pair that formed the edge.
        assert violation.details["witnesses"]
        for key, value in violation.details["sites"].items():
            assert "->" in key
            assert "test_lockorder.py:" in value

    def test_three_lock_cycle_detected(self):
        c = LockOrderChecker()
        c.on_lock_acquire("t1", 1)
        c.on_lock_acquire("t1", 2)
        c.on_lock_release("t1", 2)
        c.on_lock_release("t1", 1)
        c.on_lock_acquire("t2", 2)
        c.on_lock_acquire("t2", 3)
        c.on_lock_release("t2", 3)
        c.on_lock_release("t2", 2)
        c.on_lock_acquire("t3", 3)
        c.on_lock_acquire("t3", 1)
        cycle = c.find_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}


class TestSpinlockObserverWiring:
    def test_spinlock_notifies_observer(self):
        from repro.threads.spinlock import (
            SpinLock,
            add_lock_observer,
            remove_lock_observer,
        )

        checker = add_lock_observer(LockOrderChecker())
        try:
            lock = SpinLock(vpage=42)
            for _ in lock.acquire(holder="t1"):
                pass
            for _ in lock.release(holder="t1"):
                pass
        finally:
            remove_lock_observer(checker)
        assert checker.acquisitions == 1
        assert checker.held_by("t1") == []
