"""Runtime protocol sanitizer: clean runs pass, corruptions raise."""

import pytest

from repro.check.races import detach_detector
from repro.check.sanitizer import (
    ProtocolSanitizer,
    attach_sanitizer,
    maybe_attach_sanitizer,
    sanitizer_enabled,
)
from repro.core.directory import PageDirectory
from repro.core.policies import MoveThresholdPolicy
from repro.core.state import AccessKind, PageState
from repro.errors import ProtocolViolation
from repro.machine.memory import Frame, FrameKind
from repro.sim.harness import build_simulation
from repro.threads.spinlock import remove_lock_observer
from repro.workloads import small_workloads


def detach_sanitizer(sanitizer, machine):
    """Uninstall what ``attach_sanitizer`` installed process-wide."""
    remove_lock_observer(sanitizer)
    detach_detector(sanitizer.races, machine)


class FakeNuma:
    """The two attributes the sanitizer reads off a NUMAManager."""

    def __init__(self, policy=None):
        self.directory = PageDirectory()
        self.policy = policy or MoveThresholdPolicy(threshold=4)


def gframe(index=0):
    return Frame(FrameKind.GLOBAL, None, index)


def lframe(cpu, index=0):
    return Frame(FrameKind.LOCAL, cpu, index)


class TestEnablement:
    @pytest.mark.parametrize("value", ["1", "yes", "on", "true", "anything"])
    def test_truthy_values_enable(self, value):
        assert sanitizer_enabled({"REPRO_SANITIZE": value})

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "OFF"])
    def test_falsey_values_disable(self, value):
        assert not sanitizer_enabled({"REPRO_SANITIZE": value})

    def test_unset_disables(self):
        assert not sanitizer_enabled({})

    def test_maybe_attach_respects_the_flag(self):
        numa = FakeNuma()

        class Bus:
            def __init__(self):
                self.subscribed = []

            def subscribe(self, obs):
                self.subscribed.append(obs)

        bus = Bus()
        assert maybe_attach_sanitizer(numa, bus, environ={}) is None
        assert bus.subscribed == []


class TestCleanWorkloadRun:
    def test_small_workload_passes_sanitized(self):
        wl = small_workloads()["ParMult"]
        sim = build_simulation(
            [wl], MoveThresholdPolicy(threshold=4), n_processors=4
        )
        sanitizer = attach_sanitizer(sim.numa, sim.engine.bus)
        try:
            sim.engine.run(sim.threads)
        finally:
            detach_sanitizer(sanitizer, sim.machine)
        assert sanitizer.checks > 0
        assert sanitizer.trail()[-1]["t"] == "run_end"

    def test_harness_attaches_when_env_set(self, monkeypatch):
        from repro.threads.spinlock import lock_observers

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        wl = small_workloads()["ParMult"]
        sim = build_simulation(
            [wl], MoveThresholdPolicy(threshold=4), n_processors=4
        )
        try:
            # The harness installed the sanitizer as a lock observer.
            assert sim.sanitizer in lock_observers()
            assert isinstance(sim.sanitizer, ProtocolSanitizer)
            sim.engine.run(sim.threads)  # and the run passes its checks
        finally:
            detach_sanitizer(sim.sanitizer, sim.machine)


class TestDirectoryInvariantCheck:
    def test_corrupt_entry_raises_with_trail(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa)
        entry = numa.directory.add(7, gframe())
        # Claim LOCAL_WRITABLE without any local copy: invariant broken.
        entry.state = PageState.LOCAL_WRITABLE
        entry.owner = 2
        sanitizer.on_fault(0, 2, 7, AccessKind.WRITE)
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.on_transition(
                7, 2, PageState.UNTOUCHED, PageState.LOCAL_WRITABLE, False
            )
        violation = exc.value
        assert violation.check == "directory-invariants"
        assert violation.page_id == 7
        assert violation.details["owner"] == 2
        # The trail contains the fault that led up to the violation.
        kinds = [event["t"] for event in violation.events]
        assert "fault" in kinds and "transition" in kinds

    def test_transition_for_unknown_page_raises(self):
        sanitizer = ProtocolSanitizer(FakeNuma())
        with pytest.raises(ProtocolViolation, match="not in the directory"):
            sanitizer.on_transition(
                99, 0, PageState.UNTOUCHED, PageState.GLOBAL_WRITABLE, False
            )

    def test_directory_sweep_finds_corruption(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa)
        entry = numa.directory.add(3, gframe())
        entry.state = PageState.GLOBAL_WRITABLE
        entry.local_copies[1] = lframe(1)  # GW must have no copies
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.check_directory()
        assert exc.value.page_id == 3

    def test_round_end_sweep_is_throttled(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa, full_sweep_interval=4)
        entry = numa.directory.add(3, gframe())
        entry.state = PageState.GLOBAL_WRITABLE
        entry.local_copies[1] = lframe(1)
        for round_index in range(3):
            sanitizer.on_round_end(round_index)  # below interval: silent
        with pytest.raises(ProtocolViolation):
            sanitizer.on_round_end(3)


class TestMoveCountCheck:
    def _gw_entry(self, numa, page_id=5):
        entry = numa.directory.add(page_id, gframe())
        entry.state = PageState.GLOBAL_WRITABLE
        return entry

    def test_matching_increment_passes(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa)
        entry = self._gw_entry(numa)
        sanitizer.on_transition(
            5, 0, PageState.UNTOUCHED, PageState.GLOBAL_WRITABLE, False
        )
        entry.move_count += 1
        sanitizer.on_transition(
            5, 1, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, True
        )

    def test_backwards_count_raises(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa)
        entry = self._gw_entry(numa)
        entry.move_count = 3
        sanitizer.on_transition(
            5, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, False
        )
        entry.move_count = 1
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.on_transition(
                5, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE,
                False,
            )
        assert exc.value.check == "move-count-monotonic"

    def test_unannounced_move_raises(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa)
        entry = self._gw_entry(numa)
        sanitizer.on_transition(
            5, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, False
        )
        entry.move_count += 2  # two moves, one announced
        with pytest.raises(ProtocolViolation):
            sanitizer.on_transition(
                5, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE,
                True,
            )

    def test_freed_page_forgets_history(self):
        numa = FakeNuma()
        sanitizer = ProtocolSanitizer(numa)
        entry = self._gw_entry(numa)
        entry.move_count = 4
        sanitizer.on_transition(
            5, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, False
        )
        sanitizer.on_page_freed(5)
        numa.directory.remove(5)
        # Reused id with a fresh budget must not trip the monotonic check.
        fresh = self._gw_entry(numa)
        assert fresh.move_count == 0
        sanitizer.on_transition(
            5, 0, PageState.UNTOUCHED, PageState.GLOBAL_WRITABLE, False
        )


class TestPinningCheck:
    def _entry(self, numa, page_id=9, state=PageState.GLOBAL_WRITABLE):
        entry = numa.directory.add(page_id, gframe())
        entry.state = state
        return entry

    def test_pinned_page_must_stay_global(self):
        numa = FakeNuma(MoveThresholdPolicy(threshold=0))
        sanitizer = ProtocolSanitizer(numa)
        entry = self._entry(numa)
        numa.policy._pinned.add(9)
        # First sighting while pinned is fine (the pin binds now)...
        sanitizer.on_transition(
            9, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, False
        )
        # ...but from then on every transition must land in GW.
        entry.state = PageState.LOCAL_WRITABLE
        entry.owner = 0
        entry.local_copies[0] = lframe(0)
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.on_transition(
                9, 0, PageState.GLOBAL_WRITABLE, PageState.LOCAL_WRITABLE,
                False,
            )
        assert exc.value.check == "pin-stays-pinned"

    def test_dropped_pin_raises(self):
        numa = FakeNuma(MoveThresholdPolicy(threshold=0))
        sanitizer = ProtocolSanitizer(numa)
        self._entry(numa)
        numa.policy._pinned.add(9)
        sanitizer.on_transition(
            9, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, False
        )
        numa.policy._pinned.discard(9)
        with pytest.raises(ProtocolViolation, match="no longer pins"):
            sanitizer.on_transition(
                9, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE,
                False,
            )

    def test_reconsidering_policy_is_exempt(self):
        from repro.core.policies.reconsider import ReconsiderPolicy

        numa = FakeNuma(ReconsiderPolicy(threshold=0))
        sanitizer = ProtocolSanitizer(numa)
        entry = self._entry(numa)
        numa.policy._pinned.add(9)
        sanitizer.on_transition(
            9, 0, PageState.GLOBAL_WRITABLE, PageState.GLOBAL_WRITABLE, False
        )
        numa.policy._pinned.discard(9)
        entry.state = PageState.LOCAL_WRITABLE
        entry.owner = 0
        entry.local_copies[0] = lframe(0)
        # No raise: this policy declares reconsiders_pinning.
        sanitizer.on_transition(
            9, 0, PageState.GLOBAL_WRITABLE, PageState.LOCAL_WRITABLE, False
        )


class TestTLBCoherenceSweep:
    """PR 4: cached translations must match live MMU/directory state."""

    def _cached_rig(self):
        from repro.machine.protection import PROT_READ_WRITE
        from repro.vm.vm_object import shared_object
        from tests.conftest import make_rig

        rig = make_rig()
        region = rig.space.map_object(shared_object("data", 2))
        vpage = region.vpage_at(0)
        page = rig.pool.resident_or_allocate(region.vm_object, 0)
        rig.pmap.pmap_enter(
            vpage, page, PROT_READ_WRITE, PROT_READ_WRITE, cpu=0
        )
        cpu = rig.machine.cpu(0)
        live = cpu.mmu.lookup(vpage)
        cpu.tlb.fill(
            vpage,
            live.frame,
            live.protection,
            live.frame.location_for(0),
            rig.machine.timing.fetch_us(live.frame.location_for(0)),
            rig.machine.timing.store_us(live.frame.location_for(0)),
        )
        return rig, vpage, cpu

    def test_coherent_state_passes(self):
        rig, _, _ = self._cached_rig()
        sanitizer = ProtocolSanitizer(rig.numa)
        sanitizer.check_directory()
        assert sanitizer.tlb_checks == 1

    def test_tlb_sweep_has_its_own_counter(self):
        """`checks` must not move, or chaos baselines stop being stable."""
        rig, _, _ = self._cached_rig()
        sanitizer = ProtocolSanitizer(rig.numa)
        before = sanitizer.checks
        sanitizer.check_tlbs()
        assert sanitizer.checks == before
        assert sanitizer.tlb_checks == 1

    def test_entry_surviving_mmu_remove_raises(self):
        rig, vpage, cpu = self._cached_rig()
        sanitizer = ProtocolSanitizer(rig.numa)
        cpu.mmu.remove(vpage)  # bypasses the CPU invalidation funnel
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.check_tlbs()
        assert exc.value.check == "tlb-coherence"
        assert "missed shootdown" in str(exc.value)

    def test_stale_protection_raises(self):
        from repro.machine.protection import PROT_READ

        rig, vpage, cpu = self._cached_rig()
        sanitizer = ProtocolSanitizer(rig.numa)
        cpu.mmu.protect(vpage, PROT_READ)  # again, around the funnel
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.check_tlbs()
        assert exc.value.check == "tlb-coherence"
        assert "stale" in str(exc.value)

    def test_wrong_latency_class_raises(self):
        from repro.machine.timing import MemoryLocation

        rig, vpage, cpu = self._cached_rig()
        live = cpu.mmu.lookup(vpage)
        real = live.frame.location_for(0)
        wrong = (
            MemoryLocation.GLOBAL
            if real is MemoryLocation.LOCAL
            else MemoryLocation.LOCAL
        )
        cpu.tlb.invalidate(vpage, acting_cpu=0)
        cpu.tlb.fill(  # poison: price the frame as if it lived elsewhere
            vpage,
            live.frame,
            live.protection,
            wrong,
            rig.machine.timing.fetch_us(wrong),
            rig.machine.timing.store_us(wrong),
        )
        sanitizer = ProtocolSanitizer(rig.numa)
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.check_tlbs()
        assert exc.value.check == "tlb-coherence"
        assert "latency class" in str(exc.value)


class TestLockHooks:
    def test_abba_through_the_sanitizer_raises(self):
        sanitizer = ProtocolSanitizer(FakeNuma())
        sanitizer.on_lock_acquire("t1", 10)
        sanitizer.on_lock_acquire("t1", 20)
        sanitizer.on_lock_release("t1", 20)
        sanitizer.on_lock_release("t1", 10)
        sanitizer.on_lock_acquire("t2", 20)
        with pytest.raises(ProtocolViolation) as exc:
            sanitizer.on_lock_acquire("t2", 10)
        assert exc.value.check == "lock-order"
        # The event trail includes the lock history for debugging.
        assert any(
            event["t"] == "lock_acquire" for event in exc.value.events
        )

    def test_violation_trail_formats(self):
        sanitizer = ProtocolSanitizer(FakeNuma())
        sanitizer.on_lock_acquire("t1", 1)
        sanitizer.on_lock_acquire("t1", 2)
        sanitizer.on_lock_release("t1", 2)
        sanitizer.on_lock_release("t1", 1)
        sanitizer.on_lock_acquire("t2", 2)
        try:
            sanitizer.on_lock_acquire("t2", 1)
        except ProtocolViolation as violation:
            text = violation.format_trail()
            assert "lock_acquire" in text
        else:  # pragma: no cover
            pytest.fail("expected a lock-order violation")
