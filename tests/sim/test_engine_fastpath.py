"""The engine's TLB fast path: equivalence, fills, and livelock bounds."""

import sys

import pytest

from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.core.state import AccessKind, PlacementDecision
from repro.errors import FaultResolutionError, SimulationError
from repro.exp.spec import RunSpec
from repro.faults.injector import make_injector
from repro.machine.timing import MemoryLocation
from repro.machine.tlb import SoftwareTLB
from repro.obs.events import EventBus
from repro.obs.profiling import PhaseProfiler
from repro.sim.engine import MAX_FAULT_RESOLUTION_ATTEMPTS, Engine
from repro.sim.harness import Simulation, build_simulation, collect_result
from repro.sim.ops import Barrier, Compute, FreeObjectPages, MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.vm_object import shared_object
from repro.workloads import small_workloads
from tests.sim.test_fault_path_golden import (
    CHAOS_RETRY,
    MULTI_PAGE,
    PAGED_GLOBAL_PAGES,
    WORKLOADS,
    paged_simulation,
    spec_for,
)


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

    def on_reference(self, *event):
        """(round, cpu, vpage, page_id, reads, writes, location,
        writable_data), whole: the slow arm's tuple is the oracle for the
        fast arm's, cached page id included."""
        self.events.append(event)


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
        assert all((e[4] == 0) != (e[5] == 0) for e in log.events)

    def test_observed_slow_path_sees_the_same_events(self, name):
        fast_log, slow_log = ReferenceLog(), ReferenceLog()
        run_counted(name, observer=fast_log)
        run_counted(name, observer=slow_log, fast_path=False)
        assert fast_log.events == slow_log.events

    def test_observed_fast_path_resolves_each_entry_once(self, name):
        """The page id rides on the TLB entry: looked up on the first
        observed hit through it, never on a fill, never in a bare run."""
        bare, _, _ = run_counted(name)
        for cpu in bare.machine.cpus:
            assert all(e.page_id is None for e in cpu.tlb.entries())
        sim, _, _ = run_counted(name, observer=ReferenceLog())
        resolved = [
            entry.page_id
            for cpu in sim.machine.cpus
            for entry in cpu.tlb.entries()
            if entry.page_id is not None
        ]
        assert resolved and all(page_id >= 0 for page_id in resolved)

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


class RoundLog:
    """Keeps the round indices and run ends the bus hands it."""

    def __init__(self):
        self.round_ends = []
        self.run_ends = []

    def on_round_end(self, round_index):
        self.round_ends.append(round_index)

    def on_run_end(self, rounds):
        self.run_ends.append(rounds)


def dispatch(bodies, listen=True, subscribe_at=None):
    """Run named op lists as threads on a small rig; returns (engine,
    threads, fetch log of (round, thread, op index), RoundLog).  With
    ``subscribe_at=(thread, index)`` the log subscribes from that
    thread's body, when it yields that op, instead of up front."""
    from tests.conftest import make_rig

    rig = make_rig()
    rounds = RoundLog()
    engine = Engine(
        rig.machine,
        rig.faults,
        AffinityScheduler(rig.machine.n_cpus),
        bus=EventBus([rounds] if listen else []),
    )
    fetched = []

    def body(name, ops):
        for index, op in enumerate(ops):
            fetched.append((engine.rounds, name, index))
            if subscribe_at == (name, index):
                engine.add_observer(rounds)
            yield op

    threads = [
        CThread(name=name, index=i, body=body(name, ops))
        for i, (name, ops) in enumerate(bodies)
    ]
    return engine, threads, fetched, rounds


class TestDispatchLoopEdges:
    """Corners of the loop's bookkeeping: when it stops, which round an
    op runs in, and which rounds a round-end listener hears.  Every
    expected value was recorded with the per-round ``all()`` scan and
    the per-round ``wants_rounds`` property the loop used before it
    counted live threads and held the bus's hook list."""

    def test_an_empty_body_finishes_in_round_zero(self):
        engine, threads, fetched, rounds = dispatch(
            [("a", []), ("b", [Compute(1.0), Compute(1.0)])]
        )
        assert engine.run(threads) == 3
        assert fetched == [(0, "b", 0), (1, "b", 1)]
        assert engine.ops_executed == 2
        assert rounds.round_ends == [0, 1, 2]
        assert rounds.run_ends == [3]

    def test_a_finish_releases_later_threads_in_the_same_round(self):
        engine, threads, fetched, rounds = dispatch(
            [
                ("a", [Compute(1.0)]),
                ("b", [Barrier("x"), Compute(1.0)]),
                ("c", [Barrier("x"), Compute(1.0)]),
            ]
        )
        assert engine.run(threads) == 3
        # a's finish in round 1 releases x; b and c run in round 1 too.
        assert fetched == [
            (0, "a", 0), (0, "b", 0), (0, "c", 0), (1, "b", 1), (1, "c", 1),
        ]
        assert engine.ops_executed == 5
        assert rounds.round_ends == [0, 1, 2]
        assert rounds.run_ends == [3]

    def test_different_barriers_still_deadlock(self):
        engine, threads, fetched, rounds = dispatch(
            [
                ("a", [Barrier("x"), Compute(1.0)]),
                ("b", [Barrier("y"), Compute(1.0)]),
            ]
        )
        with pytest.raises(SimulationError) as exc:
            engine.run(threads)
        assert str(exc.value) == (
            "deadlock: live threads of one task parked at different "
            "barriers ['x', 'y']"
        )
        assert fetched == [(0, "a", 0), (0, "b", 0)]
        assert engine.ops_executed == 2
        assert rounds.round_ends == [0, 1]
        assert rounds.run_ends == []

    def test_running_finished_threads_again_returns_the_old_count(self):
        engine, threads, fetched, rounds = dispatch(
            [("a", [Compute(1.0), Compute(1.0)]), ("b", [Compute(1.0)])]
        )
        assert engine.run(threads) == 3
        assert engine.run(threads) == 3
        assert engine.run([]) == 0
        assert fetched == [(0, "a", 0), (0, "b", 0), (1, "a", 1)]
        assert engine.ops_executed == 3
        assert rounds.round_ends == [0, 1, 2]
        assert rounds.run_ends == [3, 3, 3]

    def test_a_round_end_listener_subscribed_mid_run_hears_that_round(self):
        engine, threads, fetched, rounds = dispatch(
            [("a", [Compute(1.0)] * 4), ("b", [Compute(1.0)] * 3)],
            listen=False,
            subscribe_at=("a", 2),
        )
        assert engine.run(threads) == 5
        assert [entry[0] for entry in fetched] == [0, 0, 1, 1, 2, 2, 3]
        assert engine.ops_executed == 7
        assert rounds.round_ends == [2, 3, 4]
        assert rounds.run_ends == [5]

    def test_a_fetch_log_over_several_ticks_keeps_round_and_thread_order(
        self,
    ):
        """Three policy ticks' worth of ops, threads finishing in three
        different rounds: each op is pulled in strict ``(round, thread)``
        order, in the round the engine reports, whichever arm runs it."""
        lengths = {"a": 300, "b": 200, "c": 250}
        engine, threads, fetched, _ = dispatch(
            [(name, [Compute(1.0)] * n) for name, n in lengths.items()],
            listen=False,
        )
        assert engine.run(threads) == 301
        assert fetched == [
            (r, name, r)
            for r in range(300)
            for name, n in lengths.items()
            if r < n
        ]
        assert engine.ops_executed == 750
        assert [t.ops_executed for t in threads] == [300, 200, 250]

    def test_a_class_level_lookup_wrapper_sees_every_lookup(
        self, monkeypatch
    ):
        """The ledger wraps ``SoftwareTLB.lookup`` on the class before
        any simulation is built; the loop must call the wrapped method
        once per block, hit or miss."""
        lookup = SoftwareTLB.lookup
        calls = 0

        def counted(self, vpage, need_write=False):
            nonlocal calls
            calls += 1
            return lookup(self, vpage, need_write)

        monkeypatch.setattr(SoftwareTLB, "lookup", counted)
        sim = REFSTREAM_SPECS[1].build()
        assert sim.engine.run(sim.threads) == 3_519
        counters = sim.machine.tlb_counters()
        assert (counters["hits"], counters["misses"]) == (13_984, 80)
        assert calls == counters["hits"] + counters["misses"]
        assert sim.engine.ops_executed == 14_068

    def test_a_class_level_next_op_wrapper_sees_every_op(self, monkeypatch):
        """The ledger wraps ``CThread.next_op`` on the class the same
        way: the loop must call the wrapped method once per op, plus the
        one call per thread that returns ``None``."""
        next_op = CThread.next_op
        calls = finished = 0

        def counted(self):
            nonlocal calls, finished
            calls += 1
            op = next_op(self)
            finished += op is None
            return op

        monkeypatch.setattr(CThread, "next_op", counted)
        sim = REFSTREAM_SPECS[1].build()
        assert sim.engine.run(sim.threads) == 3_519
        assert finished == len(sim.threads) == 4
        assert calls == sim.engine.ops_executed + finished == 14_072


#: The ledger's three ``refstream`` specs at a twentieth of their size:
#: nearly every block hits the TLB, so the run is the bare dispatch loop.
REFSTREAM_SPECS = (
    RunSpec(
        "ParMult",
        {"total_mults": 20_000, "chunk_mults": 2},
        policy="move-threshold",
        threshold=4,
        n_processors=4,
    ),
    RunSpec(
        "Gfetch",
        {"total_fetches": 70_000, "buffer_pages": 8, "chunk_fetches": 5},
        policy="move-threshold",
        threshold=4,
        n_processors=4,
    ),
    RunSpec(
        "Primes3",
        {"limit": 33_000},
        policy="move-threshold",
        threshold=4,
        n_processors=4,
    ),
)

#: Python-level calls per executed op under ``Engine.run`` (itself
#: included), over ``REFSTREAM_SPECS`` together.  A ratchet like
#: ``tests/sim/test_engine_observers.py::MAX_CALLS_PER_REFERENCE_EVENT``:
#: a count, exactly repeatable, and it may only be lowered.  It read 6.36
#: (6.10 on CPython 3.13) while the loop scanned every thread's state and
#: asked the bus a property once per round, and 5.58 on 3.10–3.13 once it
#: did not, and 5.45 on 3.11 once the slow arm it drops into on a miss
#: got cheaper (``tests/vm/test_fault.py``), and 4.45 on 3.10–3.13 once a
#: binding scheduler was asked once per thread, not per op.  It read
#: 3.14 on CPython 3.11 once a hit or a compute burst added to the CPU
#: clock in place instead of calling ``charge_user``: a hit cost
#: ``next_op`` with its generator step and the TLB lookup, a miss the
#: slow arm on top.  It reads 1.49 on CPython
#: 3.11 (other versions unmeasured) now that the lean arm runs whole
#: rounds with ``next_op`` and the lookup inlined: a hit or a compute
#: burst costs its generator step alone.  The ceiling is that figure
#: rounded up to 0.05.
MAX_CALLS_PER_OP = 1.50


def test_dispatch_loop_call_ratchet():
    calls = ops = rounds = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for spec in REFSTREAM_SPECS:
        sim = spec.build()
        sys.setprofile(count)
        try:
            sim.engine.run(sim.threads)
        finally:
            sys.setprofile(None)
        ops += sim.engine.ops_executed
        rounds += sim.engine.rounds
    assert (ops, rounds) == (36_450, 9_559)
    print(f"{calls / ops:.2f} Python calls per op")
    assert calls / ops <= MAX_CALLS_PER_OP


def observed_both_arms(build, tmp_path):
    """Run ``build(observer=, fast_path=)`` on each arm under a
    :class:`ReferenceLog` and a :class:`TraceCollector`; returns the fast
    arm's events and simulation after asserting the slow arm — which
    resolves the page id per event — saw and traced exactly the same."""
    runs = []
    for fast_path in (True, False):
        log, trace = ReferenceLog(), TraceCollector()
        sim = build(observer=log, fast_path=fast_path)
        sim.engine.add_observer(trace)
        sim.engine.run(sim.threads)
        path = tmp_path / f"trace-{fast_path}.jsonl"
        trace.save_jsonl(path)
        runs.append((log.events, path.read_bytes(), sim))
    (fast_events, fast_trace, fast), (slow_events, slow_trace, _) = runs
    assert fast.machine.tlb_counters()["hits"] > 0
    assert fast_events == slow_events
    assert fast_trace == slow_trace
    return fast_events, fast


def page_ids_by_vpage(events):
    """vpage -> the distinct page ids it was referenced under, in order."""
    seen = {}
    for _, _, vpage, page_id, *_ in events:
        ids = seen.setdefault(vpage, [])
        if page_id not in ids:
            ids.append(page_id)
    return seen


class TestCachedPageIdUnderRecycling:
    """Runs in which a live address comes to name another logical page:
    the entry that cached the old id must have died with the mapping."""

    @pytest.mark.parametrize("workload", MULTI_PAGE)
    def test_pageout_pressure(self, workload, tmp_path):
        stores = []

        def build(observer, fast_path):
            sim, store = paged_simulation(
                spec_for(workload).resolve_workload(),
                PAGED_GLOBAL_PAGES[workload],
                observer=observer,
                fast_path=fast_path,
            )
            stores.append(store)
            return sim

        events, _ = observed_both_arms(build, tmp_path)
        assert all(s.pageouts > 0 and s.pageins > 0 for s in stores)
        # Paged back in under a new id, at the same address.
        assert any(len(ids) > 1 for ids in page_ids_by_vpage(events).values())

    def test_free_object_pages_then_retouch(self, tmp_path):
        from tests.conftest import make_rig

        def build(observer, fast_path):
            rig = make_rig()
            obj = shared_object("d", 2)
            region = rig.space.map_object(obj)
            first, second = region.vpage_at(0), region.vpage_at(1)

            def freer():
                for _ in range(3):
                    yield MemBlock(first, reads=2, writes=1)
                yield FreeObjectPages(obj)
                for _ in range(3):
                    yield MemBlock(first, reads=2, writes=1)

            def bystander():
                # Holds TLB entries for both pages across the free.
                for _ in range(7):
                    yield MemBlock(second, reads=3)
                    yield MemBlock(first, reads=1)

            engine = Engine(
                rig.machine,
                rig.faults,
                AffinityScheduler(rig.machine.n_cpus),
                observer=observer,
                fast_path=fast_path,
            )
            rig.numa.bus = engine.bus
            threads = [
                CThread(name=f"t{i}", index=i, body=body)
                for i, body in enumerate((freer(), bystander()))
            ]
            return Simulation(
                rig.machine, rig.numa, rig.pool, rig.pmap, engine, threads, []
            )

        events, sim = observed_both_arms(build, tmp_path)
        assert sim.numa.stats.pages_freed == 2
        by_vpage = page_ids_by_vpage(events)
        assert [len(ids) for ids in by_vpage.values()] == [2, 2]
        assert {cpu for _, cpu, *_ in events} == {0, 1}

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_chaos_frame_loss(self, workload, tmp_path):
        """The ``GOLDEN_CHAOS`` frame-loss runs: frames offlined under
        live mappings, pages refaulted from global memory."""

        def build(observer, fast_path):
            spec = spec_for(workload, "all-local", fast_path=fast_path)
            return spec.build(
                injector=make_injector("frame-loss", 7, CHAOS_RETRY),
                observer=observer,
            )

        _, sim = observed_both_arms(build, tmp_path)
        assert sim.numa.stats.frames_offlined > 0


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

    def test_write_half_that_moves_the_page_fills_with_its_entry(self):
        """Each half is priced once, off the entry it resolved, and the
        last half's entry fills the TLB: the global frame the write moved
        the page to, not the local copy the read half used."""
        from tests.conftest import make_rig

        class WritesGoGlobal(MoveThresholdPolicy):
            def cache_policy(self, page, kind, cpu):
                if kind is AccessKind.WRITE:
                    return PlacementDecision.GLOBAL
                return PlacementDecision.LOCAL

        rig = make_rig(policy=WritesGoGlobal())
        vpage = rig.space.map_object(shared_object("d", 1)).vpage_at(0)
        halves = []

        class Halves:
            def on_reference(self, *event):
                halves.append(event)

        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            observer=Halves(),
        )
        thread = CThread(
            name="t0", index=0,
            body=iter([MemBlock(vpage, reads=5, writes=2)]),
        )
        engine.run([thread])
        timing = rig.machine.timing
        assert [event[6] for event in halves] == [
            MemoryLocation.LOCAL, MemoryLocation.GLOBAL
        ]
        cpu = rig.machine.cpu(0)
        live = cpu.mmu.lookup(vpage)
        location, fetch_us, store_us = timing.ref_costs(0, live.frame)
        assert location is MemoryLocation.GLOBAL
        cached = cpu.tlb.lookup(vpage, need_write=True)
        assert (cached.frame, cached.protection) == (
            live.frame, live.protection
        )
        assert (cached.location, cached.fetch_us, cached.store_us) == (
            location, fetch_us, store_us
        )
        assert cpu.user_time_us == (
            5 * timing.fetch_us(MemoryLocation.LOCAL) + 2 * store_us
        )


class TestFaultResolutionBound:
    def test_fault_the_last_run_resolves_is_resolved(self):
        """The handler's last permitted run is checked like the others:
        a fault it resolves is no livelock."""
        from tests.conftest import make_rig

        rig = make_rig()
        vpage = rig.space.map_object(shared_object("d", 1)).vpage_at(0)
        runs = []

        class LateHandler:
            """Establishes the mapping on its last permitted run only."""

            space = rig.space
            pool = rig.pool
            pmap = rig.pmap

            def handle(self, cpu, vpage, kind):
                runs.append(kind)
                if len(runs) == MAX_FAULT_RESOLUTION_ATTEMPTS:
                    return rig.faults.handle(cpu, vpage, kind)

        engine = Engine(
            rig.machine,
            LateHandler(),
            AffinityScheduler(rig.machine.n_cpus),
        )
        thread = CThread(
            name="t0", index=0, body=iter([MemBlock(vpage, reads=1)])
        )
        engine.run([thread])
        assert len(runs) == MAX_FAULT_RESOLUTION_ATTEMPTS
        assert rig.machine.cpu(0).mmu.lookup(vpage) is not None
        assert rig.machine.cpu(0).tlb.lookup(vpage) is not None

    def test_unresolvable_fault_raises_structured_error(self):
        from tests.conftest import make_rig

        rig = make_rig()
        region = rig.space.map_object(shared_object("d", 1))
        vpage = region.vpage_at(0)
        runs = []

        class StuckHandler:
            """Resolves the address but never establishes a mapping."""

            space = rig.space
            pool = rig.pool
            pmap = rig.pmap

            def handle(self, cpu, vpage, kind):
                runs.append(kind)

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
        assert len(runs) == MAX_FAULT_RESOLUTION_ATTEMPTS
        error = exc.value
        assert error.cpu == 0
        assert error.vpage == vpage
        assert error.attempts == MAX_FAULT_RESOLUTION_ATTEMPTS
        assert error.details["kind"] == "read"
        record = error.as_record()
        assert record["t"] == "fault_resolution_error"
        assert record["attempts"] == MAX_FAULT_RESOLUTION_ATTEMPTS
