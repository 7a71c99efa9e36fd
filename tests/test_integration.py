"""End-to-end integration: the whole stack exercised together."""

import pytest

from repro import (
    MoveThresholdPolicy,
    ace_config,
    measure_placement,
    run_once,
    solve_model,
)
from repro.analysis import (
    TraceCollector,
    advise,
    analyze,
    analyze_bus,
    compare_to_optimal,
    speedup_curve,
)
from repro.analysis.optimal import protocol_cost_us
from repro.core.policies import HomeNodePolicy, PragmaPolicy
from repro.core.policies.pragma import Pragma
from repro.machine.timing import TimingModel
from repro.sim.harness import build_simulation
from repro.workloads import IMatMult, Primes3, small_workloads
from repro.workloads.lopsided import LopsidedSharing


class TestFullPipeline:
    def test_measure_solve_trace_advise_bus_optimal_in_one_run(self):
        """One run feeds every analysis without re-simulation."""
        config = ace_config(4)
        trace = TraceCollector()
        result = run_once(
            Primes3.small(),
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            observer=trace,
        )
        # False-sharing classification.
        sharing = analyze(trace)
        assert sharing.writably_shared_pages
        # Layout advice.
        layout = advise(trace)
        assert layout.advice
        # Bus utilization.
        bus = analyze_bus(result, config)
        assert 0.0 <= bus.utilization < 1.0
        # Optimal comparison.
        timing = TimingModel(config.timing, config.page_size_words)
        comparison = compare_to_optimal(
            trace, timing, protocol_cost_us(result.stats, timing)
        )
        assert comparison.ratio >= 0.99

    def test_model_roundtrip_on_a_real_measurement(self):
        measurement = measure_placement(IMatMult.small(), n_processors=4)
        params = solve_model(measurement)
        assert params.gamma >= 0.99
        if params.alpha is not None:
            assert 0.0 <= params.alpha <= 1.01

    def test_every_application_final_state_is_consistent(self):
        for name, workload in small_workloads().items():
            sim = build_simulation([workload], MoveThresholdPolicy(threshold=4), n_processors=4)
            sim.engine.run(sim.threads)
            sim.numa.check_all_invariants()
            # No frame leaks relative to live pages.
            live_global = sim.machine.memory.global_in_use()
            assert live_global == sim.pool.live_pages, name

    def test_mixed_policies_and_pragmas_coexist(self):
        """Pragma'd, remote, and automatic regions in one address space."""
        policy = HomeNodePolicy(PragmaPolicy(MoveThresholdPolicy(threshold=4)))
        sim = build_simulation(
            [LopsidedSharing(dominant_share=0.8, pragma=Pragma.REMOTE)],
            policy,
            n_processors=4,
        )
        sim.engine.run(sim.threads)
        sim.numa.check_all_invariants()
        assert sim.numa.stats.remote_mappings > 0

    def test_speedup_and_placement_agree(self):
        """γ from the model matches the speedup shortfall direction."""
        curve = speedup_curve(Primes3.small, processors=(1, 4))
        measurement = measure_placement(Primes3.small(), n_processors=4)
        params = solve_model(measurement)
        # gamma > 1 implies sublinear speedup.
        assert params.gamma > 1.05
        assert curve.point(4).speedup < 4.0 / 1.05


class TestDeterminismAcrossTheBoard:
    @pytest.mark.parametrize("name", sorted(small_workloads()))
    def test_two_identical_runs_agree_exactly(self, name):
        workload = small_workloads()[name]
        first = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        second = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        assert first.user_time_us == second.user_time_us
        assert first.stats.as_dict() == second.stats.as_dict()
