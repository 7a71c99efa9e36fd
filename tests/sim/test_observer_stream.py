"""What observers receive, pinned: every hook call, trail and sample.

The engine may reach its observers however it likes — through the bus's
emit methods or the hook lists it holds, with the profiler's spans added
per block or per round, asking the scheduler per op or once per run —
but what an observer *hears* is behaviour: every ``(hook, args)`` in
order, every telemetry record apart from host-time phase totals, every
sanitizer and race-detector record and counter, and which processor
each thread ran on in each round.  The digests below were taken at
commit 5a10be2, while every event still went through the bus's emit
methods, and shown to pass there.
"""

import hashlib
import json
import sys

import pytest

from repro.check.races import detach_detector
from repro.check.sanitizer import attach_sanitizer
from repro.core.policies import MoveThresholdPolicy
from repro.errors import SimulationError
from repro.exp.spec import RunSpec
from repro.obs.events import HOOKS
from repro.obs.profiling import PhaseProfiler
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Engine
from repro.sim.harness import build_simulation, collect_result
from repro.sim.ops import Compute, MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler, GlobalQueueScheduler
from repro.threads.spinlock import remove_lock_observer
from repro.vm.vm_object import shared_object
from tests.conftest import make_rig
from tests.sim.test_engine_observers import OBSERVED_SPECS


def digest(*views):
    payload = json.dumps(views, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class StreamRecorder:
    """Hashes every hook call it hears, in order, with its arguments."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.calls = dict.fromkeys(HOOKS, 0)
        for name in HOOKS:
            setattr(self, name, self._recording(name))

    def _recording(self, name):
        def hook(*args):
            self.calls[name] += 1
            self.hash.update(repr((name, args)).encode())

        return hook


def observed_views(spec):
    """Everything the three observers and a recorder took from *spec*."""
    telemetry = Telemetry()
    sim = spec.build(telemetry=telemetry)
    sanitizer = attach_sanitizer(sim.numa, sim.engine.bus, races=True)
    detector = sanitizer.races
    # Unbounded trails: every record either checker writes, not the last 32.
    sanitizer._trail = []
    detector._trail = []
    recorder = sim.engine.bus.subscribe(StreamRecorder())
    try:
        rounds = sim.engine.run(sim.threads)
        telemetry.finalize()
    finally:
        remove_lock_observer(sanitizer)
        detach_detector(detector, sim.machine)
    records = []
    for record in telemetry.to_records():
        if record["t"] == "phase":
            # Host time is the one thing allowed to differ.
            record = {
                "t": "phase", "name": record["name"], "calls": record["calls"]
            }
        records.append(record)
    records.sort(key=lambda r: (r["t"] == "phase", str(r.get("name"))))
    return {
        "stream": recorder.hash.hexdigest()[:16],
        "calls": recorder.calls,
        "telemetry": digest(records),
        "phase_calls": {
            stat.name: stat.calls for stat in telemetry.profiler.phases
        },
        "sanitizer": digest(
            sanitizer._trail, sanitizer.checks, sanitizer.tlb_checks
        ),
        "detector": digest(detector._trail, detector.counters()),
        "result": digest(collect_result(sim, rounds).as_dict()),
    }


#: ``observed_views`` per ``OBSERVED_SPECS`` entry, from commit 5a10be2
#: on CPython 3.10 and 3.11.
GOLDEN_OBSERVED = [
    {
        "stream": "ae590c8ab05e5e8d",
        "calls": {
            "on_reference": 8000, "on_fault": 20, "on_fault_resolved": 20,
            "on_round_end": 2001, "on_run_end": 1, "on_transition": 20,
            "on_page_freed": 0, "on_fault_injected": 0, "on_recovery": 0,
        },
        "telemetry": "a31c0bae99aeb65f",
        "phase_calls": {
            "reference_batch": 4000, "fault_handling": 20, "policy_tick": 31,
        },
        "sanitizer": "734a2e9a938dde36",
        "detector": "66c0edafc11a354d",
        "result": "fec23cd74a03d957",
    },
    {
        "stream": "a4ddd1eaa96a6148",
        "calls": {
            "on_reference": 350, "on_fault": 350, "on_fault_resolved": 350,
            "on_round_end": 89, "on_run_end": 1, "on_transition": 350,
            "on_page_freed": 0, "on_fault_injected": 0, "on_recovery": 0,
        },
        "telemetry": "44621d07877ac054",
        "phase_calls": {
            "reference_batch": 175, "fault_handling": 350, "policy_tick": 1,
        },
        "sanitizer": "0b2e8149cdf4a690",
        "detector": "003b07b4597b65a4",
        "result": "c4c3960866af9cfe",
    },
    {
        "stream": "bbec4bd5cd2e3992",
        "calls": {
            "on_reference": 601, "on_fault": 48, "on_fault_resolved": 48,
            "on_round_end": 130, "on_run_end": 1, "on_transition": 48,
            "on_page_freed": 0, "on_fault_injected": 0, "on_recovery": 0,
        },
        "telemetry": "f15e33c73c03823b",
        "phase_calls": {
            "reference_batch": 401, "fault_handling": 48, "policy_tick": 1,
        },
        "sanitizer": "57db6f56c5cae486",
        "detector": "4233f9c8020216a9",
        "result": "73069c3a23d1f516",
    },
]


#: The views that differ where ``sum()`` over floats is compensated
#: (CPython 3.12 on): fault latencies and sampled clocks sum the CPUs.
#: Taken at 5a10be2 on 3.12 and 3.13, which agree.
COMPENSATED_SUM = [
    {
        "stream": "f7bce9f63613f1fb",
        "telemetry": "894b8d39db0e9d38",
        "sanitizer": "213dadd6d76f3f5e",
    },
    {
        "stream": "711846994c23c780",
        "telemetry": "c0bbe69a5091a847",
        "sanitizer": "68b93e07e89f8ceb",
    },
    {
        "stream": "0148936737ffcf81",
        "telemetry": "c66595baff3d3edc",
        "sanitizer": "bce184fb7f05024e",
    },
]


@pytest.mark.parametrize("index", range(len(OBSERVED_SPECS)))
def test_observers_hear_what_they_heard(index):
    expected = dict(GOLDEN_OBSERVED[index])
    if sys.version_info >= (3, 12):
        expected.update(COMPENSATED_SUM[index])
    assert observed_views(OBSERVED_SPECS[index]) == expected


class RecordingGlobalQueue(GlobalQueueScheduler):
    """Keeps ``(round, thread, cpu)`` for every question it answers."""

    def __init__(self, n_processors):
        super().__init__(n_processors, migration_period=5)
        self.answers = []

    def cpu_for(self, thread, round_index):
        cpu = super().cpu_for(thread, round_index)
        self.answers.append((round_index, thread.index, cpu))
        return cpu


def test_a_moving_scheduler_is_asked_per_thread_and_round():
    """Six threads of two tasks on three processors, migrating every five
    rounds: the scheduler hears every (round, runnable thread) in order,
    so its migration count is exact."""
    schedulers = []

    def factory(n):
        schedulers.append(RecordingGlobalQueue(n))
        return schedulers[-1]

    sim = build_simulation(
        [
            RunSpec(
                "ParMult", {"total_mults": 400, "chunk_mults": 2}
            ).resolve_workload(),
            RunSpec("Primes3", {"limit": 3_000}).resolve_workload(),
        ],
        MoveThresholdPolicy(threshold=4),
        n_processors=3,
        scheduler_factory=factory,
    )
    rounds = sim.engine.run(sim.threads)
    (scheduler,) = schedulers
    assert (
        scheduler.migrations(),
        len(scheduler.answers),
        digest(scheduler.answers),
        digest(collect_result(sim, rounds).as_dict()),
    ) == GOLDEN_GLOBAL_QUEUE


#: (migrations, questions, their digest, the result's), from 5a10be2.
GOLDEN_GLOBAL_QUEUE = (124, 631, "d8faa9e359d8f520", "5f37063eb42cd0d3")


def test_a_run_that_raises_keeps_the_blocks_it_issued():
    """``reference_batch`` counts every block that completed, even when
    the run then dies mid-round."""
    rig = make_rig()
    region = rig.space.map_object(shared_object("d", 2))
    a, b = region.vpage_at(0), region.vpage_at(1)

    def steady():
        for reads in range(1, 6):
            yield MemBlock(a, reads=reads)

    def doomed():
        yield MemBlock(b, writes=1)
        yield Compute(1.0)
        yield MemBlock(b, reads=2, writes=2)
        yield "not an op"

    profiler = PhaseProfiler()
    engine = Engine(
        rig.machine,
        rig.faults,
        AffinityScheduler(rig.machine.n_cpus),
        profiler=profiler,
    )
    threads = [
        CThread(name=f"t{i}", index=i, body=body)
        for i, body in enumerate((steady(), doomed()))
    ]
    with pytest.raises(SimulationError, match="unknown operation"):
        engine.run(threads)
    # Rounds 0-3 of the steady thread and the doomed thread's two blocks.
    assert profiler.phase("reference_batch").calls == 6
    assert engine.rounds == 3
