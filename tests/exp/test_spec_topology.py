"""RunSpec topology fields: fingerprints, labels, machine resolution."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import ConfigurationError
from repro.exp.spec import RunSpec
from repro.machine.config import ace_config

#: Fingerprints captured before the topology fields existed.  The new
#: ``machine_name``/``page_tables`` fields enter the key only when
#: non-default, so every pre-topology fingerprint must be reproduced
#: exactly by the current code.
GOLDEN_FPS = {
    "default ParMult":
        ("fd4bbadf7eaa1e358b42e9a96c8ae646724d97e7c6c85c0153eba4956"
         "e8e3f44"),
    "quick all-global":
        ("10149f776c33f807799bf713eab847c475cf411eacfa40ae217e62f43"
         "33c66cf"),
    "transient seed 3":
        ("706e0cf4a99e4e6b1cf8b0f82bda74240544a9f9e35d5ad92dcb065fa"
         "291dcaa"),
}


class TestFingerprintBackCompat:
    def test_default_spec(self):
        spec = RunSpec(workload="ParMult")
        assert spec.fingerprint() == GOLDEN_FPS["default ParMult"]

    def test_quick_all_global(self):
        spec = RunSpec(workload="Gauss", quick=True, policy="all-global")
        assert spec.fingerprint() == GOLDEN_FPS["quick all-global"]

    def test_chaos_spec(self):
        spec = RunSpec(
            workload="ParMult", fault_profile="transient", fault_seed=3
        )
        assert spec.fingerprint() == GOLDEN_FPS["transient seed 3"]

    def test_explicit_defaults_do_not_perturb_the_key(self):
        plain = RunSpec(workload="ParMult")
        explicit = RunSpec(
            workload="ParMult", machine_name="ace", page_tables="centralized"
        )
        assert explicit.key() == plain.key()
        assert explicit.fingerprint() == plain.fingerprint()

    def test_topology_fields_enter_the_key_when_set(self):
        plain = RunSpec(workload="ParMult")
        topo = RunSpec(workload="ParMult", machine_name="4socket32")
        repl = RunSpec(
            workload="ParMult",
            machine_name="4socket32",
            page_tables="replicated",
        )
        assert topo.fingerprint() != plain.fingerprint()
        assert repl.fingerprint() != topo.fingerprint()
        assert "machine_name" not in dict(plain.key())
        assert dict(topo.key())["machine_name"] == "4socket32"
        assert dict(repl.key())["page_tables"] == "replicated"


class TestTopologySpecs:
    def test_label_names_the_machine(self):
        spec = RunSpec(workload="ParMult", machine_name="2socket8")
        assert spec.label.endswith("2socket8")
        repl = RunSpec(
            workload="ParMult",
            machine_name="4socket32",
            page_tables="replicated",
        )
        assert repl.label.endswith("4socket32:replicated")

    def test_resolves_registry_machine(self):
        spec = RunSpec(
            workload="ParMult",
            machine_name="4socket32",
            page_tables="replicated",
        )
        config = spec.resolve_machine_config()
        assert config.n_processors == 32
        assert config.page_tables == "replicated"
        assert config.topology.name == "4socket32"

    def test_ace_default_resolves_to_the_harness_default(self):
        spec = RunSpec(workload="ParMult", n_processors=5)
        assert spec.resolve_machine_config() == ace_config(5)

    def test_unknown_machine_raises_and_is_not_declarative(self):
        spec = RunSpec(workload="ParMult", machine_name="nosuch")
        with pytest.raises(ConfigurationError):
            spec.resolve_machine_config()
        assert not spec.is_declarative()

    def test_registry_machines_are_declarative(self):
        for name in ("ace", "2socket8", "4socket32"):
            assert RunSpec(workload="ParMult", machine_name=name).is_declarative()


class TestCrossProcessStability:
    def test_topology_fingerprint_stable_across_processes(self):
        """The cache key contract: fingerprints must not depend on
        per-process state (hash seeds, dict order, import order)."""
        spec = RunSpec(
            workload="ParMult",
            machine_name="4socket32",
            page_tables="replicated",
            fault_profile="transient",
            fault_seed=3,
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.exp.spec import RunSpec;"
            "print(RunSpec(workload='ParMult', machine_name='4socket32',"
            " page_tables='replicated', fault_profile='transient',"
            " fault_seed=3).fingerprint())"
        )
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="99")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == spec.fingerprint()
