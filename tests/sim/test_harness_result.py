"""Run harness and result plumbing."""

import pytest

from repro.core.policies import AllGlobalPolicy, MoveThresholdPolicy
from repro.machine.config import MachineConfig
from repro.machine.timing import MemoryLocation
from repro.sim.harness import build_simulation, measure_placement, run_once
from repro.sim.ops import Compute, MemBlock
from repro.sim.result import CPUTimes, RunResult
from repro.core.stats import NUMAStats
from repro.machine.cpu import ReferenceCounters
from repro.threads.scheduler import GlobalQueueScheduler
from repro.workloads.base import Workload
from repro.workloads.layout import LayoutBuilder


class MiniWorkload(Workload):
    """Fixed total work split among threads: 60 writes to a shared page,
    600 private reads, a little compute."""

    name = "mini"
    g_over_l = 2.0

    def build(self, ctx):
        layout = LayoutBuilder(ctx)
        shared = layout.shared("s", 16)
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]
        per = 60 // ctx.n_threads

        def body(t):
            for _ in range(per):
                yield MemBlock(shared.vpage_at(0), writes=1)
                yield MemBlock(stacks[t].vpage_at(0), reads=10)
                yield Compute(20.0)

        return [body(t) for t in range(ctx.n_threads)]


class TestRunOnce:
    def test_returns_populated_result(self):
        result = run_once(MiniWorkload(), MoveThresholdPolicy(threshold=4), n_processors=3)
        assert isinstance(result, RunResult)
        assert result.workload == "mini"
        assert result.n_processors == 3
        assert result.n_threads == 3
        assert result.user_time_us > 0
        assert result.system_time_us > 0
        assert result.rounds > 0

    def test_thread_count_defaults_to_processors(self):
        result = run_once(MiniWorkload(), MoveThresholdPolicy(threshold=4), n_processors=2)
        assert result.n_threads == 2

    def test_explicit_machine_config(self):
        config = MachineConfig(
            n_processors=2, local_pages_per_cpu=32, global_pages=64
        )
        result = run_once(
            MiniWorkload(), MoveThresholdPolicy(threshold=4), machine_config=config
        )
        assert result.n_processors == 2

    def test_custom_scheduler_migrations_reported(self):
        result = run_once(
            MiniWorkload(),
            MoveThresholdPolicy(threshold=4),
            n_processors=3,
            scheduler_factory=lambda n: GlobalQueueScheduler(n, 5),
        )
        assert result.migrations > 0

    def test_build_simulation_exposes_parts(self):
        sim = build_simulation([MiniWorkload()], MoveThresholdPolicy(threshold=4), n_processors=2)
        assert sim.machine.n_cpus == 2
        assert len(sim.threads) == 2
        assert sim.contexts[0].n_threads == 2


class TestMeasurePlacement:
    def test_three_runs_with_right_policies(self):
        m = measure_placement(MiniWorkload(), n_processors=3)
        assert m.numa.policy.startswith("move-threshold")
        assert m.all_global.policy == "all-global"
        assert m.local.policy == "all-local"
        assert m.local.n_processors == 1
        assert m.local.n_threads == 1

    def test_global_run_is_slowest(self):
        m = measure_placement(MiniWorkload(), n_processors=3)
        assert m.t_global_s >= m.t_numa_s >= 0
        assert m.t_numa_s >= m.t_local_s * 0.99

    def test_threshold_parameter_respected(self):
        m = measure_placement(MiniWorkload(), n_processors=3, threshold=9)
        assert "9" in m.numa.policy


class TestRunResult:
    def make(self, local=10, global_=0):
        refs = ReferenceCounters()
        refs.record(MemoryLocation.LOCAL, local, 0)
        refs.record(MemoryLocation.GLOBAL, global_, 0)
        return RunResult(
            workload="w",
            policy="p",
            n_processors=1,
            n_threads=1,
            per_cpu=[CPUTimes(0, 100.0, 10.0)],
            stats=NUMAStats(),
            data_refs=refs,
            all_refs=refs,
            rounds=1,
        )

    def test_time_aggregation(self):
        result = self.make()
        assert result.user_time_us == 100.0
        assert result.system_time_us == 10.0
        assert result.user_time_s == pytest.approx(1e-4)

    def test_measured_alpha(self):
        assert self.make(local=8, global_=2).measured_alpha == pytest.approx(0.8)

    def test_measured_alpha_none_without_data_refs(self):
        assert self.make(local=0, global_=0).measured_alpha is None

    def test_summary_contains_key_fields(self):
        text = self.make().summary()
        assert "w" in text and "p" in text and "alpha" in text

    def test_store_fraction(self):
        refs = ReferenceCounters()
        refs.record(MemoryLocation.LOCAL, 6, 4)
        result = RunResult(
            workload="w",
            policy="p",
            n_processors=1,
            n_threads=1,
            per_cpu=[],
            stats=NUMAStats(),
            data_refs=refs,
            all_refs=refs,
            rounds=0,
        )
        assert result.store_fraction == pytest.approx(0.4)
