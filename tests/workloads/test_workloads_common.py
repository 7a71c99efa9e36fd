"""Behaviour shared by every application workload."""

import pytest

from repro.core.policies import (
    AllGlobalPolicy,
    AllLocalPolicy,
    MoveThresholdPolicy,
)
from repro.sim.harness import build_simulation, run_once
from repro.workloads import small_workloads

WORKLOAD_ITEMS = sorted(small_workloads().items())
WORKLOAD_IDS = [name for name, _ in WORKLOAD_ITEMS]
WORKLOADS = [wl for _, wl in WORKLOAD_ITEMS]


@pytest.fixture(params=WORKLOADS, ids=WORKLOAD_IDS)
def workload(request):
    return request.param


class TestEveryWorkload:
    def test_runs_clean_under_the_threshold_policy(self, workload):
        result = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        assert result.user_time_us > 0

    def test_runs_clean_under_all_global(self, workload):
        result = run_once(workload, AllGlobalPolicy(), n_processors=4)
        assert result.user_time_us > 0

    def test_runs_clean_single_threaded_all_local(self, workload):
        result = run_once(
            workload, AllLocalPolicy(), n_processors=1, n_threads=1
        )
        assert result.user_time_us > 0

    def test_invariants_hold_at_exit(self, workload):
        sim = build_simulation([workload], MoveThresholdPolicy(threshold=4), n_processors=4)
        sim.engine.run(sim.threads)
        sim.numa.check_all_invariants()

    def test_deterministic(self, workload):
        a = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        b = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        assert a.user_time_us == b.user_time_us
        assert a.system_time_us == b.system_time_us
        assert a.stats.moves == b.stats.moves

    def test_build_is_pure_across_runs(self, workload):
        """Two consecutive builds must not share VM objects."""
        sim1 = build_simulation([workload], MoveThresholdPolicy(threshold=4), n_processors=2)
        sim2 = build_simulation([workload], MoveThresholdPolicy(threshold=4), n_processors=2)
        ids1 = {r.vm_object.object_id for r in sim1.contexts[0].space.regions}
        ids2 = {r.vm_object.object_id for r in sim2.contexts[0].space.regions}
        assert ids1.isdisjoint(ids2)

    def test_numa_between_local_and_global(self, workload):
        """Tlocal <= Tnuma and Tnuma <= Tglobal (within slack):
        the ordering the whole evaluation rests on."""
        numa = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        all_global = run_once(workload, AllGlobalPolicy(), n_processors=4)
        local = run_once(
            workload, AllLocalPolicy(), n_processors=1, n_threads=1
        )
        assert numa.user_time_us <= all_global.user_time_us * 1.02
        assert numa.user_time_us >= local.user_time_us * 0.98

    def test_work_is_fixed_not_per_thread(self, workload):
        """Section 3.1 requires the same total work regardless of the
        number of processors; user time may differ only through placement
        (bounded by the G/L ratio), not through workload scaling."""
        two = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=2)
        four = run_once(workload, MoveThresholdPolicy(threshold=4), n_processors=4)
        ratio = four.user_time_us / two.user_time_us
        assert 0.4 < ratio < 2.5
