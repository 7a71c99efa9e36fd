"""The layout advisor: automated Section 4.2 tuning advice."""

import pytest

from repro.analysis.layout_advisor import AdviceKind, advise
from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.machine.timing import MemoryLocation
from repro.sim.harness import build_simulation
from repro.workloads.plytrace import PlyTrace
from repro.workloads.primes import Primes2, Primes3


def ref(trace, cpu, vpage, reads=0, writes=0):
    trace.on_reference(
        round_index=0,
        cpu=cpu,
        vpage=vpage,
        page_id=vpage,
        reads=reads,
        writes=writes,
        location=MemoryLocation.GLOBAL,
        writable_data=True,
    )


def run_traced(workload, n_processors=7):
    trace = TraceCollector(keep_faults=False)
    sim = build_simulation(
        [workload],
        MoveThresholdPolicy(threshold=4),
        n_processors=n_processors,
        observer=trace,
        check_invariants=False,
    )
    sim.engine.run(sim.threads)
    return trace, sim.contexts[0].space


class TestSyntheticPatterns:
    def test_dominated_page_gets_segregate(self):
        trace = TraceCollector()
        ref(trace, 0, 5, reads=900, writes=60)
        ref(trace, 1, 5, writes=40)
        report = advise(trace)
        assert len(report.advice) == 1
        advice = report.advice[0]
        assert advice.kind is AdviceKind.SEGREGATE
        assert advice.estimated_saving_us > 0

    def test_read_mostly_page_gets_privatize(self):
        trace = TraceCollector()
        for cpu in range(4):
            ref(trace, cpu, 6, reads=500)
        ref(trace, 0, 6, writes=10)
        report = advise(trace)
        assert report.advice[0].kind is AdviceKind.PRIVATIZE

    def test_genuinely_shared_page_gets_pragma(self):
        trace = TraceCollector()
        for cpu in range(4):
            ref(trace, cpu, 7, reads=200, writes=200)
        report = advise(trace)
        assert report.advice[0].kind is AdviceKind.MARK_NONCACHEABLE
        assert report.advice[0].estimated_saving_us == 0.0

    def test_private_pages_get_no_advice(self):
        trace = TraceCollector()
        ref(trace, 0, 8, reads=1000, writes=1000)
        assert advise(trace).advice == []

    def test_tiny_pages_are_ignored(self):
        trace = TraceCollector()
        ref(trace, 0, 9, writes=5)
        ref(trace, 1, 9, writes=5)
        assert advise(trace, min_refs=64).advice == []

    def test_ranking_by_saving(self):
        trace = TraceCollector()
        ref(trace, 0, 10, reads=10_000)
        ref(trace, 1, 10, writes=100)
        ref(trace, 0, 11, reads=500)
        ref(trace, 1, 11, writes=20)
        report = advise(trace)
        assert [a.vpage for a in report.advice] == [10, 11]
        assert report.total_estimated_saving_us() > 0

    def test_top_limits_output(self):
        trace = TraceCollector()
        for vpage in range(12, 22):
            ref(trace, 0, vpage, reads=1000)
            ref(trace, 1, vpage, writes=50)
        assert len(advise(trace).top(3)) == 3


class TestOnRealWorkloads:
    def test_primes2_shared_divisors_advice_is_privatize(self):
        """The advisor rediscovers the paper's own fix."""
        trace, space = run_traced(
            Primes2(limit=20_000, private_divisors=False)
        )
        report = advise(trace, space=space)
        top = report.top(3)
        assert any(
            a.kind is AdviceKind.PRIVATIZE
            and a.object_name == "primes.output"
            for a in top
        ), [(a.kind, a.object_name) for a in top]

    def test_primes3_sieve_advice_is_pragma(self):
        trace, space = run_traced(Primes3.small())
        report = advise(trace, space=space)
        sieve_advice = [
            a for a in report.advice if a.object_name == "sieve.bits"
        ]
        assert sieve_advice
        assert all(
            a.kind is AdviceKind.MARK_NONCACHEABLE for a in sieve_advice
        )

    def test_tuned_primes2_draws_less_advice(self):
        shared_trace, shared_space = run_traced(
            Primes2(limit=20_000, private_divisors=False)
        )
        tuned_trace, tuned_space = run_traced(
            Primes2(limit=20_000, private_divisors=True)
        )
        shared_saving = advise(
            shared_trace, space=shared_space
        ).total_estimated_saving_us()
        tuned_saving = advise(
            tuned_trace, space=tuned_space
        ).total_estimated_saving_us()
        assert tuned_saving < shared_saving * 0.35

    def test_object_names_resolved(self):
        trace, space = run_traced(PlyTrace.small(), n_processors=4)
        report = advise(trace, space=space)
        for advice in report.advice:
            assert advice.object_name is not None
