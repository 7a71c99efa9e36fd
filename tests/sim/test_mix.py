"""Multiprogrammed mixes: several tasks on one machine."""

import inspect

import pytest

from repro.check.races import detach_detector
from repro.core.policies import MoveThresholdPolicy
from repro.core.policies.registry import build_policy
from repro.sim.harness import build_simulation, run_once
from repro.sim.mix import run_mix
from repro.threads.spinlock import lock_observers, remove_lock_observer
from repro.workloads.gfetch import Gfetch
from repro.workloads.imatmult import IMatMult
from repro.workloads.parmult import ParMult
from repro.workloads.primes import Primes1, Primes3


class TestRunMix:
    def test_single_workload_mix_matches_run_once(self):
        mix = run_mix(
            [ParMult.small()], MoveThresholdPolicy(threshold=4), n_processors=4
        )
        solo = run_once(ParMult.small(), MoveThresholdPolicy(threshold=4), n_processors=4)
        assert mix.total_user_us == pytest.approx(solo.user_time_us)
        # A one-task run's share is the machine's user time, exactly.
        assert mix.tasks[0].user_time_us == mix.total_user_us

    def test_task_attribution_sums_to_total(self):
        mix = run_mix(
            [ParMult.small(), Primes1.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        assert sum(t.user_time_us for t in mix.tasks) == pytest.approx(
            mix.total_user_us
        )

    def test_task_named_lookup(self):
        mix = run_mix(
            [ParMult.small(), Primes1.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        assert mix.task_named("ParMult").task == 0
        assert mix.task_named("Primes1").task == 1
        with pytest.raises(KeyError):
            mix.task_named("nope")

    @pytest.mark.parametrize("workload", [ParMult, Gfetch])
    def test_single_run_is_a_mix_of_one(self, workload):
        solo = run_once(
            workload.small(), MoveThresholdPolicy(threshold=4), n_processors=4
        )
        mix = run_mix(
            [workload.small()], MoveThresholdPolicy(threshold=4), n_processors=4
        )
        assert mix.total_user_us == solo.user_time_us
        assert mix.total_system_us == solo.system_time_us
        assert mix.stats.as_dict() == solo.stats.as_dict()
        assert mix.rounds == solo.rounds

    def test_invariants_checked_by_default(self):
        """run_mix shares run_once's check_invariants=True default."""
        for driver in (run_mix, run_once):
            default = inspect.signature(driver).parameters["check_invariants"]
            assert default.default is True

    def test_mix_binds_machine_watching_policies(self):
        """Policies with a bind_machine hook see the machine in a mix
        exactly as in a single run."""
        bandwidth = build_policy("bandwidth-aware")
        bandit = build_policy("bandit", params={"seed": 7})
        for policy in (bandwidth, bandit):
            run_mix(
                [ParMult.small(), Gfetch.small()], policy, n_processors=2
            )
        assert bandwidth.contention is not None
        assert bandit._machine is not None

    def test_mix_is_sanitized_like_a_single_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for workloads in (
            [ParMult.small()],
            [IMatMult.small(), Primes3.small()],
        ):
            sim = build_simulation(
                workloads, MoveThresholdPolicy(threshold=4), n_processors=4
            )
            assert sim.sanitizer in lock_observers()
            try:
                sim.engine.run(sim.threads)
            finally:
                remove_lock_observer(sim.sanitizer)
                detach_detector(sim.sanitizer.races, sim.machine)
            assert sim.sanitizer.checks > 0

    def test_same_application_twice_does_not_cross_barriers(self):
        """Two IMatMult tasks use identical barrier names; they must
        synchronize within their own task only."""
        mix = run_mix(
            [IMatMult.small(), IMatMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        a, b = mix.tasks
        assert a.user_time_us > 0 and b.user_time_us > 0
        assert a.user_time_us == pytest.approx(b.user_time_us, rel=0.05)

    def test_mix_placement_matches_standalone(self):
        """The introduction's claim: each application in the mix keeps
        (almost) the locality it had standalone."""
        solo = run_once(
            Primes1.small(), MoveThresholdPolicy(threshold=4), n_processors=4,
            check_invariants=False,
        )
        mix = run_mix(
            [Primes1.small(), Primes3.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
        )
        mixed = mix.task_named("Primes1").user_time_us
        assert mixed == pytest.approx(solo.user_time_us, rel=0.05)

    def test_mix_invariants_hold(self):
        result = run_mix(
            [IMatMult.small(), Primes3.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=4,
            check_invariants=True,
        )
        assert result.stats.moves > 0

    def test_tasks_occupy_disjoint_virtual_ranges(self):
        """No address-space identifiers in the MMUs, so tasks must not
        collide on virtual page numbers — one task would otherwise
        translate straight into another task's frames."""
        sim = build_simulation(
            [ParMult.small(), ParMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=2,
        )
        vpages = [
            {vp for region in ctx.space.regions for vp in region.vpages()}
            for ctx in sim.contexts
        ]
        assert vpages[0] and vpages[1]
        assert vpages[0].isdisjoint(vpages[1])

    def test_identical_twins_get_identical_times(self):
        mix = run_mix(
            [ParMult.small(), ParMult.small()],
            MoveThresholdPolicy(threshold=4),
            n_processors=2,
        )
        a, b = mix.tasks
        assert a.user_time_us == pytest.approx(b.user_time_us, rel=0.05)
