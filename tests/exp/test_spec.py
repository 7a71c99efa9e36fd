"""RunSpec: identity, fingerprints, resolution, and execution."""

import dataclasses
import pickle
import subprocess
import sys
import typing

import pytest

from repro.core.policies.registry import POLICY_ENTRIES
from repro.errors import ConfigurationError
from repro.exp.spec import (
    SPEC_SCHEMA,
    Outcome,
    RunSpec,
    resolve_policy,
    resolve_workload,
)
from repro.sim.result import ChaosReport


class TestIdentity:
    def test_key_round_trips(self):
        spec = RunSpec(
            workload="ParMult", quick=True, threshold=2, n_processors=3
        )
        assert RunSpec.from_key(spec.key()) == spec

    def test_from_key_rejects_unknown_fields(self):
        key = RunSpec(workload="ParMult").key()
        key["surprise"] = 1
        with pytest.raises(ConfigurationError, match="surprise"):
            RunSpec.from_key(key)

    def test_fingerprint_is_order_insensitive(self):
        spec = RunSpec(workload="FFT", quick=True)
        key = spec.key()
        shuffled = dict(reversed(list(key.items())))
        assert RunSpec.from_key(shuffled).fingerprint() == spec.fingerprint()

    def test_fingerprint_distinguishes_parameters(self):
        base = RunSpec(workload="ParMult", quick=True)
        fingerprints = {
            base.fingerprint(),
            RunSpec(workload="ParMult").fingerprint(),
            RunSpec(workload="ParMult", quick=True, threshold=0).fingerprint(),
            RunSpec(workload="ParMult", quick=True, fault_seed=1).fingerprint(),
            RunSpec(workload="FFT", quick=True).fingerprint(),
        }
        assert len(fingerprints) == 5

    def test_fingerprint_is_salted_by_schema(self):
        spec = RunSpec(workload="ParMult")
        assert SPEC_SCHEMA.startswith("repro-exp/")
        # Recomputing by hand with the schema salt reproduces the value.
        import hashlib

        manual = hashlib.sha256(
            (SPEC_SCHEMA + "\n" + spec.canonical_json()).encode()
        ).hexdigest()
        assert manual == spec.fingerprint()

    def test_fingerprint_stable_across_processes(self):
        """Content addressing must not depend on process state (hash
        randomization, import order) — a cache written by one process
        must be readable by the next."""
        spec = RunSpec(workload="Primes3", quick=True, threshold=8)
        script = (
            "from repro.exp.spec import RunSpec; "
            "print(RunSpec(workload='Primes3', quick=True, threshold=8)"
            ".fingerprint())"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.strip() == spec.fingerprint()

    def test_label_is_human_readable(self):
        spec = RunSpec(workload="ParMult", quick=True)
        assert "ParMult" in spec.label
        assert "move-threshold" in spec.label


class TestFingerprintMemo:
    """One SHA-256 per instance, and never a stale one."""

    SPEC = dict(workload="Primes3", quick=True, policy_params={"seed": 7},
                policy="bandit")

    def test_hashed_once_per_instance(self, monkeypatch):
        hashed = []
        canonical_json = RunSpec.canonical_json
        monkeypatch.setattr(
            RunSpec,
            "canonical_json",
            lambda spec: hashed.append(spec) or canonical_json(spec),
        )
        spec = RunSpec(**self.SPEC)
        assert len({spec.fingerprint() for _ in range(5)}) == 1
        assert hashed == [spec]

    def test_equal_specs_built_separately_agree(self):
        a, b = RunSpec(**self.SPEC), RunSpec(**self.SPEC)
        assert a is not b and a.fingerprint() == b.fingerprint()

    def test_replace_and_from_key_hash_afresh(self):
        spec = RunSpec(**self.SPEC)
        before = spec.fingerprint()
        changed = dataclasses.replace(spec, threshold=8)
        assert changed.fingerprint() != before
        assert changed.fingerprint() == RunSpec(
            **self.SPEC, threshold=8
        ).fingerprint()
        assert RunSpec.from_key(spec.key()).fingerprint() == before
        assert spec.fingerprint() == before

    def test_equality_hash_and_repr_ignore_the_memo(self):
        hashed, fresh = RunSpec(**self.SPEC), RunSpec(**self.SPEC)
        hashed.fingerprint()
        assert hashed == fresh and hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert dataclasses.asdict(hashed) == dataclasses.asdict(fresh)

    @pytest.mark.parametrize("hashed_first", (False, True))
    def test_pickled_spec_agrees(self, hashed_first):
        spec = RunSpec(**self.SPEC)
        if hashed_first:
            spec.fingerprint()
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.fingerprint() == RunSpec(**self.SPEC).fingerprint()


class TestResolution:
    def test_resolve_workload_case_insensitive(self):
        assert resolve_workload("parmult").name == "ParMult"

    def test_resolve_workload_quick_uses_small_instances(self):
        full = resolve_workload("ParMult")
        quick = resolve_workload("ParMult", quick=True)
        assert quick.name == full.name
        assert quick is not full

    def test_resolve_workload_unknown_raises_with_menu(self):
        with pytest.raises(ConfigurationError, match="ParMult"):
            resolve_workload("nope")

    def test_resolve_policy_registry_covers_paper_policies(self):
        for name in ("move-threshold", "all-global", "all-local"):
            assert name in POLICY_ENTRIES
        policy = resolve_policy("move-threshold", threshold=9)
        assert policy.threshold == 9

    def test_resolve_policy_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_policy("nope", threshold=4)


class TestExecution:
    def test_run_produces_the_workloads_result(self):
        spec = RunSpec(workload="ParMult", quick=True, n_processors=3)
        result = spec.run()
        assert result.workload == "ParMult"
        assert result.n_processors == 3
        assert result.user_time_us > 0

    def test_execute_wraps_plain_runs(self):
        outcome = RunSpec(workload="ParMult", quick=True).execute()
        assert outcome.kind == "run"
        assert outcome.result is not None and outcome.chaos is None

    def test_execute_routes_fault_profiles_to_chaos(self):
        outcome = RunSpec(
            workload="ParMult",
            quick=True,
            fault_profile="transient",
            fault_seed=3,
        ).execute()
        assert outcome.kind == "chaos"
        assert outcome.chaos.profile == "transient"
        assert outcome.chaos.seed == 3

    def test_outcome_round_trips_both_kinds(self):
        for spec in (
            RunSpec(workload="ParMult", quick=True),
            RunSpec(workload="ParMult", quick=True, fault_profile="transient"),
        ):
            outcome = spec.execute()
            rebuilt = Outcome.from_dict(outcome.as_dict())
            assert rebuilt.to_json() == outcome.to_json()

    def test_outcome_annotations_resolve(self):
        hints = typing.get_type_hints(Outcome)
        assert hints["chaos"] == typing.Optional[ChaosReport]

    def test_declarative_spec_is_deterministic(self):
        spec = RunSpec(workload="ParMult", quick=True)
        assert spec.is_declarative()
        assert spec.run().to_json() == spec.run().to_json()

    def test_unknown_registry_names_are_not_declarative(self):
        assert not RunSpec(workload="nope").is_declarative()
        assert not RunSpec(workload="ParMult", policy="nope").is_declarative()


class TestPolicyParams:
    """policy_params: spec identity, labels, and fingerprint freeze."""

    def test_default_fingerprints_are_frozen(self):
        """The exact pre-policy_params bytes, pinned.

        Empty ``policy_params`` must stay out of the canonical key so
        every result cache written before the field existed still
        resolves.  If this test fails, cached results were orphaned.
        """
        assert RunSpec(workload="ParMult").fingerprint() == (
            "fd4bbadf7eaa1e358b42e9a96c8ae646724d97e7c6c85c0153eba4956e8e3f44"
        )
        assert RunSpec(workload="ParMult", quick=True).fingerprint() == (
            "6a636ae6dd91ac38972feda937d827ef777e1058b34c41f5d75c0352f0ddda47"
        )

    def test_empty_params_stay_out_of_the_key(self):
        spec = RunSpec(workload="ParMult", policy_params=())
        assert "policy_params" not in spec.key()
        assert spec.fingerprint() == RunSpec(workload="ParMult").fingerprint()

    def test_params_enter_key_and_fingerprint(self):
        spec = RunSpec(
            workload="ParMult", policy="bandit",
            policy_params=(("seed", 7),),
        )
        assert spec.key()["policy_params"] == {"seed": 7}
        assert (
            spec.fingerprint()
            != RunSpec(workload="ParMult", policy="bandit").fingerprint()
        )
        assert RunSpec.from_key(spec.key()) == spec

    def test_params_are_order_insensitive(self):
        a = RunSpec(
            workload="ParMult", policy="bandit",
            policy_params=(("seed", 7), ("epsilon", 0.2)),
        )
        b = RunSpec(
            workload="ParMult", policy="bandit",
            policy_params=(("epsilon", 0.2), ("seed", 7)),
        )
        assert a.fingerprint() == b.fingerprint()

    def test_params_accept_mappings(self):
        spec = RunSpec(
            workload="ParMult", policy="bandit",
            policy_params={"seed": 7},
        )
        assert spec.policy_params == (("seed", 7),)

    def test_param_fingerprint_stable_across_processes(self):
        spec = RunSpec(
            workload="Gfetch", policy="bandit",
            policy_params=(("seed", 7), ("epsilon", 0.2)),
        )
        script = (
            "from repro.exp.spec import RunSpec; "
            "print(RunSpec(workload='Gfetch', policy='bandit', "
            "policy_params=(('seed', 7), ('epsilon', 0.2))).fingerprint())"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.strip() == spec.fingerprint()

    def test_label_shows_the_params(self):
        spec = RunSpec(
            workload="ParMult", policy="bandit",
            policy_params=(("seed", 7),),
        )
        assert "bandit(seed=7)" in spec.label

    def test_resolve_policy_applies_the_params(self):
        spec = RunSpec(
            workload="ParMult", policy="adaptive-threshold",
            threshold=6, policy_params=(("backoff", 3.0),),
        )
        policy = spec.resolve_policy()
        assert policy.threshold == 6
        assert policy.name == "adaptive-threshold(6,30000us,x3)"

    def test_bad_params_are_rejected_before_running(self):
        spec = RunSpec(
            workload="ParMult", policy="bandit",
            policy_params=(("nosuch", 1),),
        )
        with pytest.raises(ConfigurationError, match="nosuch"):
            spec.resolve_policy()
        assert not spec.is_declarative()
