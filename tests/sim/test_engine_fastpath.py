"""The engine's TLB fast path: equivalence, fills, and livelock bounds."""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.errors import FaultResolutionError
from repro.machine.timing import MemoryLocation
from repro.sim.engine import MAX_FAULT_RESOLUTION_ATTEMPTS, Engine
from repro.sim.harness import build_simulation
from repro.sim.ops import MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.vm_object import shared_object
from repro.workloads import small_workloads


def run_both_paths(workload_factory, n_processors=4):
    """Run the same workload with and without the fast path."""
    sims = []
    for fast_path in (True, False):
        sim = build_simulation(
            [workload_factory()],
            MoveThresholdPolicy(threshold=4),
            n_processors=n_processors,
            fast_path=fast_path,
        )
        sim.engine.run(sim.threads)
        sims.append(sim)
    return sims


class TestEquivalence:
    """The tentpole's fidelity gate: both paths simulate the same run."""

    @pytest.mark.parametrize("name", ["ParMult", "Gfetch", "IMatMult"])
    def test_fast_and_slow_paths_are_bit_identical(self, name):
        fast, slow = run_both_paths(lambda: small_workloads()[name])
        assert (
            fast.machine.total_user_time_us()
            == slow.machine.total_user_time_us()
        )
        assert (
            fast.machine.total_system_time_us()
            == slow.machine.total_system_time_us()
        )
        assert fast.numa.stats.as_dict() == slow.numa.stats.as_dict()
        assert fast.engine.rounds == slow.engine.rounds
        for fast_cpu, slow_cpu in zip(fast.machine.cpus, slow.machine.cpus):
            assert fast_cpu.all_refs == slow_cpu.all_refs
            assert fast_cpu.data_refs == slow_cpu.data_refs

    def test_fast_path_actually_engages(self):
        fast, slow = run_both_paths(lambda: small_workloads()["Gfetch"])
        assert fast.machine.tlb_counters()["hits"] > 0
        assert fast.engine.fast_path and not slow.engine.fast_path

    def test_slow_path_never_consults_the_tlb(self):
        """Shootdowns still flow (the funnel is unconditional), but the
        reference path must not look up or fill anything."""
        _, slow = run_both_paths(lambda: small_workloads()["Gfetch"])
        counters = slow.machine.tlb_counters()
        for key in ("hits", "misses", "fills", "evictions"):
            assert counters[key] == 0, counters


class TestFillBehavior:
    def _engine(self, rig):
        return Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
        )

    def _run(self, rig, ops):
        engine = self._engine(rig)
        engine.run([CThread(name="t0", index=0, body=iter(ops))])
        return engine

    def test_repeat_blocks_hit_after_one_miss(self):
        from tests.conftest import make_rig

        rig = make_rig()
        vpage = rig.space.map_object(shared_object("d", 1)).vpage_at(0)
        self._run(rig, [MemBlock(vpage, reads=5) for _ in range(4)])
        tlb = rig.machine.cpu(0).tlb
        assert tlb.misses == 1  # first block faulted and filled
        assert tlb.hits == 3

    def test_protection_upgrade_refills_with_write_rights(self):
        from tests.conftest import make_rig

        rig = make_rig()
        vpage = rig.space.map_object(shared_object("d", 1)).vpage_at(0)
        self._run(
            rig,
            [
                MemBlock(vpage, reads=5),  # read-only fill
                MemBlock(vpage, writes=2),  # upgrade: miss, refault, refill
                MemBlock(vpage, writes=2),  # now a hit
            ],
        )
        tlb = rig.machine.cpu(0).tlb
        assert tlb.misses == 2
        assert tlb.hits == 1
        assert tlb.lookup(vpage, need_write=True) is not None

    def test_fill_caches_the_landed_location(self):
        """The entry must describe where the page ended up, post-fault."""
        from tests.conftest import make_rig

        rig = make_rig()
        vpage = rig.space.map_object(shared_object("d", 1)).vpage_at(0)
        self._run(rig, [MemBlock(vpage, reads=1)])
        entry = rig.machine.cpu(0).tlb.lookup(vpage)
        frame = rig.machine.cpu(0).mmu.lookup(vpage).frame
        location = frame.location_for(0)
        assert entry.location is location
        assert entry.fetch_us == rig.machine.timing.fetch_us(location)


class TestFaultResolutionBound:
    def test_unresolvable_fault_raises_structured_error(self):
        from tests.conftest import make_rig

        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 1))
        vpage = region.vpage_at(0)

        class StuckHandler:
            """Resolves the address but never establishes a mapping."""

            space = rig.space
            pool = rig.pool
            pmap = rig.pmap

            def handle(self, cpu, vpage, kind):
                pass

        engine = Engine(
            rig.machine,
            StuckHandler(),
            AffinityScheduler(rig.machine.n_cpus),
        )
        thread = CThread(
            name="t0", index=0, body=iter([MemBlock(vpage, reads=1)])
        )
        with pytest.raises(FaultResolutionError) as exc:
            engine.run([thread])
        error = exc.value
        assert error.cpu == 0
        assert error.vpage == vpage
        assert error.attempts == MAX_FAULT_RESOLUTION_ATTEMPTS
        assert error.details["kind"] == "read"
        record = error.as_record()
        assert record["t"] == "fault_resolution_error"
        assert record["attempts"] == MAX_FAULT_RESOLUTION_ATTEMPTS
