"""The engine's lean arm against its general loop: one run, two arms.

``Engine.run`` runs whole round-robin rounds in its lean arm whenever it
may: one task, bound threads, the stock ``CThread.next_op`` and
``SoftwareTLB.lookup``, and nothing to serve per op.  A pass-through
class-level ``next_op`` wrapper is the observable condition that sends a
run to the general loop instead, so no knob is needed to compare the two:
every observable of a run — its result, per-CPU clocks, reference and
TLB counters, page-table counters, per-thread op counts and rounds — must
come out the same.
"""

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.exp.grid import flatten, table3_grid
from repro.exp.spec import RunSpec
from repro.faults.injector import make_injector
from repro.sim.engine import Engine
from repro.sim.harness import collect_result
from repro.sim.ops import Barrier, Compute, MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.vm_object import shared_object
from tests.conftest import make_rig
from tests.sim.test_engine_fastpath import REFSTREAM_SPECS
from tests.vm.test_fault import FAULTSTORM_SPECS

#: The ledger's six ``topology`` specs at their ``--smoke`` size.
TOPOLOGY_SPECS = tuple(
    RunSpec(
        app,
        params,
        policy=policy,
        threshold=4,
        machine_name="4socket32",
        n_threads=8,
        page_tables=placement,
    )
    for placement in ("centralized", "replicated")
    for app, params, policy in (
        ("FFT", {"size": 32}, "move-threshold"),
        ("Primes3", {"limit": 6_500}, "migration-only"),
        ("ParMult", {"total_mults": 8_000, "chunk_mults": 2}, "move-threshold"),
    )
)


class LeanSpy:
    """Counts the ops the lean arm ran, around the real method."""

    def __init__(self, monkeypatch):
        self.ops = 0
        lean_rounds = Engine._lean_rounds

        def spied(engine, *args):
            before = engine.ops_executed
            try:
                return lean_rounds(engine, *args)
            finally:
                self.ops += engine.ops_executed - before

        monkeypatch.setattr(Engine, "_lean_rounds", spied)


def outcome(machine, engine, threads, rounds):
    """Everything a run leaves behind that either arm could get wrong."""
    return (
        rounds,
        engine.ops_executed,
        [thread.ops_executed for thread in threads],
        [
            (
                cpu.user_time_us,
                cpu.system_time_us,
                cpu.all_refs,
                cpu.data_refs,
                cpu.tlb.counters(),
            )
            for cpu in machine.cpus
        ],
        machine.tlb_counters(),
        machine.topology_counters(),
    )


def both_arms(run):
    """``run()`` once on each arm; returns (lean, general, lean ops).

    *run* builds and runs a fresh simulation and returns its outcome.
    """
    with pytest.MonkeyPatch.context() as patch:
        spy = LeanSpy(patch)
        lean = run()
    with pytest.MonkeyPatch.context() as patch:
        next_op = CThread.next_op
        patch.setattr(CThread, "next_op", lambda thread: next_op(thread))
        general = run()
    return lean, general, spy.ops


def tick_log(engine, policy):
    """Log ``(ops_executed, now)`` at each of *policy*'s ticks: the lean
    arm must leave every tick to the general loop, on time."""
    ticks = []
    tick = policy.tick

    def logged(now):
        ticks.append((engine.ops_executed, now))
        tick(now)

    policy.tick = logged
    return ticks


def run_spec(spec, profile=None):
    def run():
        injector = None if profile is None else make_injector(profile, 7)
        sim = spec.build(injector=injector)
        ticks = tick_log(sim.engine, sim.numa.policy)
        rounds = sim.engine.run(sim.threads)
        return (
            collect_result(sim, rounds).as_dict(),
            ticks,
            outcome(sim.machine, sim.engine, sim.threads, rounds),
        )

    return run


def assert_same(run):
    lean, general, lean_ops = both_arms(run)
    assert lean == general
    return lean_ops


def test_the_quick_table3_grid():
    lean_ops = sum(
        assert_same(run_spec(spec)) for spec in flatten(table3_grid(quick=True))
    )
    assert lean_ops > 0


@pytest.mark.parametrize(
    "spec",
    REFSTREAM_SPECS + FAULTSTORM_SPECS + TOPOLOGY_SPECS,
    ids=lambda spec: f"{spec.workload}-{spec.policy}-{spec.machine_name}"
    f"-{spec.page_tables}",
)
def test_the_ledger_specs_at_smoke_size(spec):
    assert assert_same(run_spec(spec)) > 0


@pytest.mark.parametrize("profile", ["none", "transient", "frame-loss"])
def test_chaos_profiles(profile):
    """Injected transfer failures and delays inside the lean arm's slow
    ops; ``frame-loss`` also pumps the injector between ops."""
    spec = RunSpec(
        "ParMult",
        {"total_mults": 2_000, "chunk_mults": 2},
        policy="all-local",
        n_processors=4,
    )
    assert assert_same(run_spec(spec, profile)) > 0


def rig_run(bodies_for, policy_tick_ops=16):
    """A run on the small test rig over a 4-page shared region; *bodies_for*
    maps the region's vpages to the thread bodies.  Also returns the order
    ops were pulled in, as (round, thread, op index)."""

    def run():
        rig = make_rig(policy=MoveThresholdPolicy(threshold=2))
        region = rig.space.map_object(shared_object("d", 4))
        vpages = [region.vpage_at(i) for i in range(4)]
        engine = Engine(
            rig.machine,
            rig.faults,
            AffinityScheduler(rig.machine.n_cpus),
            policy_tick_ops=policy_tick_ops,
        )
        ticks = tick_log(engine, rig.numa.policy)
        fetched = []

        def logged(index, body):
            for step, op in enumerate(body):
                fetched.append((engine.rounds, index, step))
                yield op

        threads = [
            CThread(name=f"t{i}", index=i, body=logged(i, body))
            for i, body in enumerate(bodies_for(vpages))
        ]
        rounds = engine.run(threads)
        return (
            fetched,
            ticks,
            rig.numa.stats.as_dict(),
            outcome(rig.machine, engine, threads, rounds),
        )

    return run


def test_a_barrier_heavy_run():
    """Shared pages written between frequent barriers: misses, faults,
    barrier parks and releases, all inside the lean arm's rounds."""

    def bodies(vpages):
        def body(index):
            for step in range(60):
                if step % 5 == 4:
                    yield Barrier("phase")
                yield MemBlock(
                    vpages[(index + step) % 4],
                    reads=1 + step % 3,
                    writes=(index + step) % 2,
                )
                yield Compute(0.5 + index)

        return [body(index) for index in range(4)]

    assert assert_same(rig_run(bodies)) > 0


def test_bodies_that_finish_mid_round():
    """Threads of different lengths: each finish leaves the lean arm
    mid-round, and thread 0's finish releases the barrier the rest wait
    at, so they run again in that same round."""

    def bodies(vpages):
        def body(index, length):
            for step in range(length):
                yield MemBlock(
                    vpages[step % 4], reads=2, writes=int(step % 3 == 0)
                )
                yield Compute(1.0)
            if index:
                yield Barrier("end")
                yield MemBlock(vpages[index], writes=1)

        return [
            body(index, length) for index, length in enumerate((40, 9, 23, 31))
        ]

    assert assert_same(rig_run(bodies)) > 0
