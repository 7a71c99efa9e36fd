"""The engine's TLB fast path: equivalence, fills, and livelock bounds."""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.errors import FaultResolutionError
from repro.machine.timing import MemoryLocation
from repro.obs.profiling import PhaseProfiler
from repro.sim.engine import MAX_FAULT_RESOLUTION_ATTEMPTS, Engine
from repro.sim.harness import build_simulation, collect_result
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


class ReferenceLog:
    """An ``on_reference`` observer that keeps what it was told."""

    def __init__(self):
        self.events = []

    def on_reference(
        self, round_index, cpu, vpage, page_id, reads, writes, location,
        writable_data,
    ):
        self.events.append((reads, writes))


def run_counted(name, *, profiler=None, observer=None, fast_path=True):
    """Run small *name*; returns (sim, MemBlock tally, simulated outputs)."""
    sim = build_simulation(
        [small_workloads()[name]],
        MoveThresholdPolicy(threshold=4),
        n_processors=4,
        observer=observer,
        fast_path=fast_path,
    )
    if profiler is not None:
        sim.engine.profiler = profiler
    tally = {"blocks": 0, "halves": 0}

    def counted(body):
        for op in body:
            if isinstance(op, MemBlock):
                tally["blocks"] += 1
                tally["halves"] += (op.reads > 0) + (op.writes > 0)
            yield op

    for thread in sim.threads:
        thread.body = counted(thread.body)
    rounds = sim.engine.run(sim.threads)
    outputs = (
        collect_result(sim, rounds).as_dict(),
        sim.machine.tlb_counters(),
    )
    return sim, tally, outputs


@pytest.mark.parametrize("name", ["Primes3", "FFT", "PlyTrace"])
class TestOneDispatchLoop:
    """Profiling and observing are arms of the loop the bare run takes."""

    def test_profiled_run_is_the_bare_run(self, name):
        _, _, bare = run_counted(name)
        profiler = PhaseProfiler()
        _, tally, profiled = run_counted(name, profiler=profiler)
        assert profiled == bare
        # One reference_batch span per MemBlock, hit or miss.
        assert profiler.phase("reference_batch").calls == tally["blocks"]

    def test_observed_run_is_the_bare_run(self, name):
        _, _, bare = run_counted(name)
        log = ReferenceLog()
        _, tally, observed = run_counted(name, observer=log)
        assert observed == bare
        # One event per non-empty half-block, never a merged one.
        assert len(log.events) == tally["halves"]
        assert all((r == 0) != (w == 0) for r, w in log.events)

    def test_observed_slow_path_sees_the_same_events(self, name):
        fast_log, slow_log = ReferenceLog(), ReferenceLog()
        run_counted(name, observer=fast_log)
        run_counted(name, observer=slow_log, fast_path=False)
        assert fast_log.events == slow_log.events

    def test_each_block_is_looked_up_exactly_once(self, name):
        sim, tally, _ = run_counted(name)
        counters = sim.machine.tlb_counters()
        # A miss falls through to the slow arm without a second lookup.
        assert counters["hits"] + counters["misses"] == tally["blocks"]
        assert counters["hits"] > counters["misses"] > 0

    def test_ops_are_counted_once_per_thread_and_engine(self, name):
        sim, _, _ = run_counted(name)
        assert (
            sum(thread.ops_executed for thread in sim.threads)
            == sim.engine.ops_executed
        )


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
