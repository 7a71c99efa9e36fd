"""The instance-passing drivers and RunSpec take one path: parity."""

import warnings

import pytest

from repro.core.policies import AllGlobalPolicy, MoveThresholdPolicy
from repro.exp.grid import placement_specs
from repro.exp.spec import RunSpec
from repro.sim.harness import measure_placement, run_once
from repro.workloads.parmult import ParMult


class TestRunOnceShim:
    def test_matches_declarative_spec_byte_for_byte(self):
        shim = run_once(
            ParMult.small(), MoveThresholdPolicy(threshold=4), n_processors=2
        )
        spec = RunSpec(workload="ParMult", quick=True, n_processors=2)
        assert shim.to_json() == spec.run().to_json()

    def test_keyword_call_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_once(
                ParMult.small(),
                MoveThresholdPolicy(threshold=4),
                n_processors=2,
                check_invariants=False,
            )

    def test_positional_keyword_conflict_is_an_error(self):
        with pytest.raises(TypeError, match="positional"):
            run_once(
                ParMult.small(), MoveThresholdPolicy(threshold=4), 2, n_processors=2
            )
        with pytest.raises(TypeError, match="positional"):
            run_once(ParMult.small(), MoveThresholdPolicy(threshold=4), 2)

    def test_unknown_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="surprise"):
            run_once(ParMult.small(), MoveThresholdPolicy(threshold=4), surprise=1)

    def test_non_registry_policy_instances_still_run(self):
        result = run_once(ParMult.small(), AllGlobalPolicy(), n_processors=2)
        assert result.policy == AllGlobalPolicy().name


class TestMeasurePlacementShim:
    def test_runs_the_placement_spec_triple(self):
        m = measure_placement(ParMult.small(), n_processors=2, threshold=4)
        specs = placement_specs(
            "ParMult", n_processors=2, threshold=4, quick=True
        )
        assert m.numa.to_json() == specs.tnuma.run().to_json()
        assert m.all_global.to_json() == specs.tglobal.run().to_json()
        assert m.local.to_json() == specs.tlocal.run().to_json()

    def test_local_run_is_uniprocessor(self):
        m = measure_placement(ParMult.small(), n_processors=3)
        assert m.local.n_processors == 1
        assert m.local.n_threads == 1
        assert m.numa.n_processors == 3
