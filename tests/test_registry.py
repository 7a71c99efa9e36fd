"""The one name → entry idiom, over every registry that uses it."""

import re

import pytest

from repro.cli import main
from repro.core.policies.registry import POLICY_ENTRIES, parse_policy_arg
from repro.errors import ConfigurationError
from repro.exp.grid import GRIDS
from repro.exp.spec import RunSpec
from repro.faults import HARNESS_PROFILES, PROFILES
from repro.machine.topology import MACHINE_REGISTRY
from repro.registry import Registry
from repro.workloads import TABLE_3_WORKLOADS

#: Every registry with the command line that selects from it by name.
REGISTRIES = {
    "workload": (TABLE_3_WORKLOADS, ["--quick", "sweep", "--apps", "{}"]),
    "machine": (MACHINE_REGISTRY, ["modelcheck", "--machine", "{}"]),
    "policy": (
        POLICY_ENTRIES,
        ["--quick", "batch", "--no-cache", "--grid", "tournament",
         "--policies", "{}"],
    ),
    "fault profile": (
        PROFILES, ["--quick", "chaos", "parmult", "--profile", "{}"]
    ),
    "harness-chaos profile": (
        HARNESS_PROFILES,
        ["--quick", "batch", "--no-cache", "--harness-chaos", "{}"],
    ),
    "grid": (GRIDS, ["batch", "--grid", "{}"]),
}


@pytest.mark.parametrize("kind", REGISTRIES)
class TestEveryRegistry:
    def test_mixed_case_resolves_to_the_registry_spelling(self, kind):
        registry, _ = REGISTRIES[kind]
        assert registry.kind == kind
        for name in registry:
            assert registry.canonical(f"  {name.swapcase()} ") == name
            assert registry.resolve(name.upper()) is registry[name]

    def test_a_miss_lists_exactly_the_menu_in_order(self, kind):
        registry, _ = REGISTRIES[kind]
        with pytest.raises(ConfigurationError) as excinfo:
            registry.resolve("nosuch")
        head, _, menu = str(excinfo.value).partition("; choose from ")
        assert head == f"unknown {kind} 'nosuch'"
        assert tuple(menu.split(", ")) == tuple(registry)

    def test_a_miss_exits_2_through_main(self, kind, capsys):
        registry, argv = REGISTRIES[kind]
        try:
            status = main([part.format("nosuch") for part in argv])
        except SystemExit as exit_:  # argparse's own choices check
            status = exit_.code
        assert status == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        menu = ".*".join(re.escape(name) for name in registry)
        assert re.search(menu, err)


class TestRegistryIsAMapping:
    def test_dict_style_callers_keep_working(self):
        registry = Registry("thing", {"Bb": 2, "a": 1})
        assert list(registry) == ["Bb", "a"]  # menu order, not sorted
        assert dict(registry.items()) == {"Bb": 2, "a": 1}
        assert "a" in registry and "bb" not in registry
        assert registry.get("bb") is None  # exact keys stay exact
        assert registry.canonical("BB") == "Bb"


class TestPolicyNamesFoldCase:
    def test_parse_policy_arg_returns_the_registry_spelling(self):
        assert parse_policy_arg("Bandit:seed=7") == ("bandit", {"seed": 7})
        assert parse_policy_arg(" Move-Threshold ") == ("move-threshold", {})

    def test_mixed_case_entrants_build_the_same_fingerprint(self):
        def fingerprints(policy):
            args = type("Args", (), dict(
                apps=["Gfetch"], policies=[policy], processors=3,
                threshold=4, quick=True,
            ))
            return [spec.fingerprint() for spec in GRIDS["tournament"](args)]

        assert fingerprints("Bandit:seed=7") == fingerprints("bandit:seed=7")

    def test_a_spec_resolves_a_mixed_case_policy(self):
        policy = RunSpec(workload="ParMult", policy="All-Global")
        assert type(policy.resolve_policy()).__name__ == "AllGlobalPolicy"
