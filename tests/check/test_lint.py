"""The repo-specific AST lint: rules, suppressions, and repo cleanliness."""

import ast
import json
import pathlib
import textwrap

import pytest

from repro.check.lint import (
    ALL_RULES,
    DEFAULT_RULES,
    RULES,
    lint_paths,
    lint_source,
)
from repro.cli import main

#: A miniature package tree with exactly one planted violation per rule,
#: and what the eleven ``Rule`` subclasses before the rule table (commit
#: 043799e) reported on it, less the rows of the two spin-lock rules
#: deleted since (RN009, RN011): ``[rule_id, path, line, col, message]``
#: rows from ``lint_paths([tree], rules=ALL_RULES, root=tree)``.
PLANTED = pathlib.Path(__file__).parent / "planted"


def lint(source: str, relpath: str):
    violations, suppressed = lint_source(
        textwrap.dedent(source), relpath, DEFAULT_RULES
    )
    return violations, suppressed


def rule_ids(violations):
    return [v.rule_id for v in violations]


class TestNoWallClock:
    def test_import_and_call_flagged_in_sim(self):
        violations, _ = lint(
            """
            from time import perf_counter

            def f():
                return perf_counter()
            """,
            "sim/clock_abuse.py",
        )
        assert rule_ids(violations) == ["RN001", "RN001"]

    def test_attribute_read_flagged_in_core(self):
        violations, _ = lint(
            """
            import time

            def f():
                return time.time()
            """,
            "core/clock_abuse.py",
        )
        assert rule_ids(violations) == ["RN001"]

    def test_datetime_now_flagged_in_vm(self):
        violations, _ = lint(
            """
            import datetime

            def f():
                return datetime.now()
            """,
            "vm/clock_abuse.py",
        )
        assert rule_ids(violations) == ["RN001"]

    def test_profiling_module_is_allowlisted(self):
        violations, _ = lint(
            "from time import perf_counter\n", "obs/profiling.py"
        )
        assert violations == []

    def test_outside_simulated_dirs_is_fine(self):
        violations, _ = lint(
            "from time import perf_counter\n", "analysis/report.py"
        )
        assert violations == []

    def test_module_alias_is_resolved(self):
        violations, _ = lint(
            """
            import time as t

            def f():
                return t.perf_counter()
            """,
            "sim/engine.py",
        )
        assert rule_ids(violations) == ["RN001"]
        assert "'time.perf_counter'" in violations[0].message

    def test_simulated_time_names_are_fine(self):
        # The engine's own now_us() etc. are not wall-clock reads.
        violations, _ = lint(
            """
            def f(engine):
                return engine.now_us()
            """,
            "sim/fine.py",
        )
        assert violations == []


class TestStateAssign:
    BAD = """
    from repro.core.state import PageState

    def f(entry):
        entry.state = PageState.READ_ONLY
    """

    def test_assignment_outside_funnel_flagged(self):
        violations, _ = lint(self.BAD, "vm/pmap.py")
        assert rule_ids(violations) == ["RN002"]

    def test_funnel_modules_are_allowed(self):
        # numa_manager may assign, but RN005 then demands an emit; this
        # function has both, so it is fully clean.
        violations, _ = lint(
            """
            from repro.core.state import PageState

            def _transition(self, entry):
                entry.state = PageState.READ_ONLY
                self._bus.emit_transition(entry.page_id)
            """,
            "core/numa_manager.py",
        )
        assert violations == []

    def test_comparison_is_not_assignment(self):
        violations, _ = lint(
            """
            from repro.core.state import PageState

            def f(entry):
                return entry.state is PageState.READ_ONLY
            """,
            "vm/pmap.py",
        )
        assert violations == []


class TestOneDefinitionOfAssignment:
    """RN002, RN005 and RN008 agree on what "assigns ``.state``" means."""

    @pytest.mark.parametrize(
        "statement",
        [
            "entry.state = PageState.READ_ONLY",
            "entry.state: PageState = PageState.READ_ONLY",
            "entry.state |= PageState.READ_ONLY",
            "entry.state, moved = PageState.READ_ONLY, True",
        ],
        ids=["plain", "annotated", "augmented", "unpacked"],
    )
    @pytest.mark.parametrize(
        "relpath, expected",
        [
            ("sim/engine.py", ["RN002", "RN008"]),
            ("core/numa_manager.py", ["RN005"]),
        ],
        ids=["outside-the-funnel", "inside-it"],
    )
    def test_every_form_is_an_assignment(self, statement, relpath, expected):
        source = f"def rogue(entry):\n    {statement}\n"
        violations, _ = lint_source(source, relpath, ALL_RULES)
        assert rule_ids(violations) == expected


class TestBareExcept:
    def test_bare_except_flagged(self):
        violations, _ = lint(
            """
            def f():
                try:
                    pass
                except:
                    pass
            """,
            "analysis/anything.py",
        )
        assert rule_ids(violations) == ["RN003"]

    def test_typed_except_is_fine(self):
        violations, _ = lint(
            """
            def f():
                try:
                    pass
                except ValueError:
                    pass
            """,
            "analysis/anything.py",
        )
        assert violations == []


class TestMutableDefault:
    def test_list_literal_flagged(self):
        violations, _ = lint(
            "def f(items=[]):\n    pass\n", "workloads/x.py"
        )
        assert rule_ids(violations) == ["RN004"]

    def test_dict_call_flagged(self):
        violations, _ = lint(
            "def f(*, table=dict()):\n    pass\n", "workloads/x.py"
        )
        assert rule_ids(violations) == ["RN004"]

    def test_none_default_is_fine(self):
        violations, _ = lint(
            "def f(items=None):\n    pass\n", "workloads/x.py"
        )
        assert violations == []


class TestTransitionEvent:
    def test_silent_state_assign_in_funnel_flagged(self):
        violations, _ = lint(
            """
            from repro.core.state import PageState

            def sneak(entry):
                entry.state = PageState.READ_ONLY
            """,
            "core/numa_manager.py",
        )
        assert rule_ids(violations) == ["RN005"]

    def test_rule_only_applies_to_funnel_modules(self):
        # Elsewhere RN002 owns the problem; RN005 must not double-report.
        violations, _ = lint(
            """
            from repro.core.state import PageState

            def sneak(entry):
                entry.state = PageState.READ_ONLY
            """,
            "vm/pmap.py",
        )
        assert rule_ids(violations) == ["RN002"]


class TestSeededRandom:
    def test_unseeded_random_flagged(self):
        violations, _ = lint(
            """
            import random

            def f():
                return random.Random()
            """,
            "faults/plan.py",
        )
        assert rule_ids(violations) == ["RN006"]

    def test_seeded_random_is_fine(self):
        violations, _ = lint(
            """
            import random

            def f(seed):
                return random.Random(seed)
            """,
            "faults/plan.py",
        )
        assert violations == []

    def test_module_level_draw_flagged(self):
        violations, _ = lint(
            """
            import random

            def f():
                return random.choice([1, 2, 3]) + random.random()
            """,
            "sim/engine.py",
        )
        assert rule_ids(violations) == ["RN006", "RN006"]

    def test_module_alias_is_resolved(self):
        violations, _ = lint(
            """
            import random as r

            def f():
                return r.random() + r.Random().random()
            """,
            "sim/engine.py",
        )
        assert rule_ids(violations) == ["RN006", "RN006"]

    def test_from_import_of_draw_flagged(self):
        violations, _ = lint(
            "from random import randint, shuffle\n", "core/policy.py"
        )
        assert rule_ids(violations) == ["RN006", "RN006"]

    def test_from_import_of_random_class_is_fine(self):
        violations, _ = lint(
            """
            from random import Random

            def f(seed):
                return Random(seed)
            """,
            "faults/plan.py",
        )
        assert violations == []

    def test_suppression_comment_honored(self):
        violations, suppressed = lint(
            """
            import random

            def f():
                return random.Random()  # repro-lint: allow[seeded-random]
            """,
            "faults/plan.py",
        )
        assert violations == []
        assert suppressed == 1


class TestMMUMutation:
    def test_direct_mmu_call_flagged_outside_funnel(self):
        violations, _ = lint(
            """
            def sneak(machine, vpage, frame, prot):
                machine.cpu(0).mmu.enter(vpage, frame, prot)
            """,
            "core/numa_manager.py",
        )
        assert rule_ids(violations) == ["RN007"]

    def test_every_mutator_name_is_flagged(self):
        violations, _ = lint(
            """
            def sneak(mmu, vpage, frame, prot):
                mmu.enter(vpage, frame, prot)
                mmu.remove(vpage)
                mmu.protect(vpage, prot)
                mmu.remove_frame(frame)
            """,
            "sim/engine.py",
        )
        assert rule_ids(violations) == ["RN007"] * 4

    def test_private_attribute_spelling_is_flagged(self):
        violations, _ = lint(
            """
            def sneak(self, vpage):
                self._mmu.remove(vpage)
            """,
            "vm/vm_object.py",
        )
        assert rule_ids(violations) == ["RN007"]

    def test_read_only_mmu_calls_are_fine(self):
        violations, _ = lint(
            """
            def peek(mmu, vpage, frame):
                return mmu.lookup(vpage), mmu.vpage_of(frame)
            """,
            "core/numa_manager.py",
        )
        assert violations == []

    def test_funnel_layers_are_allowlisted(self):
        source = """
        def funnel(self, vpage, frame, prot):
            self._mmu.enter(vpage, frame, prot)
        """
        for relpath in ("machine/cpu.py", "vm/pmap.py"):
            violations, _ = lint(source, relpath)
            assert violations == [], relpath

    def test_suppression_comment_honored(self):
        violations, suppressed = lint(
            """
            def sneak(mmu, vpage):
                mmu.remove(vpage)  # repro-lint: allow[mmu-mutation]
            """,
            "core/numa_manager.py",
        )
        assert violations == []
        assert suppressed == 1


class TestSuppressions:
    def test_line_suppression_by_name(self):
        violations, suppressed = lint(
            """
            def f():
                try:
                    pass
                except:  # repro-lint: allow[bare-except]
                    pass
            """,
            "analysis/x.py",
        )
        assert violations == []
        assert suppressed == 1

    def test_line_suppression_by_id(self):
        violations, suppressed = lint(
            "def f(items=[]):  # repro-lint: allow[RN004]\n    pass\n",
            "workloads/x.py",
        )
        assert violations == []
        assert suppressed == 1

    def test_file_wide_suppression(self):
        violations, suppressed = lint(
            """
            # repro-lint: allow-file[no-wall-clock]
            from time import perf_counter

            def f():
                return perf_counter()
            """,
            "sim/x.py",
        )
        assert violations == []
        assert suppressed == 2

    def test_suppression_is_rule_specific(self):
        violations, suppressed = lint(
            """
            def f(items=[]):  # repro-lint: allow[bare-except]
                pass
            """,
            "workloads/x.py",
        )
        assert rule_ids(violations) == ["RN004"]
        assert suppressed == 0


class TestPlantedTree:
    """The differential for the rule table: one planted finding per rule."""

    EXPECTED = [
        tuple(row)
        for row in json.loads((PLANTED / "expected.json").read_text())
    ]

    @staticmethod
    def findings(rules):
        report = lint_paths([PLANTED], rules=rules, root=PLANTED)
        return [
            (v.rule_id, v.path, v.line, v.col, v.message)
            for v in report.violations
        ]

    def test_the_table_reports_what_the_rule_classes_did(self):
        assert sorted(row[0] for row in self.EXPECTED) == [
            rule.id for rule in RULES
        ]
        assert self.findings(RULES) == self.EXPECTED

    @pytest.mark.parametrize("dropped", RULES, ids=lambda rule: rule.id)
    def test_every_row_is_needed(self, dropped):
        """A rule that silently stopped firing fails here."""
        kept = [rule for rule in RULES if rule is not dropped]
        assert self.findings(kept) == [
            row for row in self.EXPECTED if row[0] != dropped.id
        ]

    def test_the_cli_exits_1_on_it(self, capsys):
        assert main(["lint", str(PLANTED), "--format", "json"]) == 1
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert records[-1]["t"] == "lint_summary"
        assert records[-1]["violations"] == len(records) - 1 > 0


class TestRepoIsClean:
    def test_whole_package_lints_clean(self):
        """The acceptance gate: repro-numa lint exits 0 on this repo."""
        report = lint_paths()
        assert report.violations == [], report.format()
        assert report.exit_code == 0
        assert report.files_checked > 50

    def test_all_rules_suppress_the_twelve_known_sites(self):
        report = lint_paths(rules=ALL_RULES)
        assert (len(report.violations), report.suppressed) == (0, 12)

    def test_each_file_is_parsed_once(self, monkeypatch):
        """A count, not a clock: one ``ast.parse`` per file per run."""
        from repro.check.races import run_race_check

        parses = []
        parse = ast.parse
        monkeypatch.setattr(
            ast, "parse", lambda *a, **kw: parses.append(a) or parse(*a, **kw)
        )
        report = lint_paths()
        assert len(parses) == report.files_checked
        del parses[:]
        races = run_race_check(static=True, dynamic=False, fixtures=False)
        assert len(parses) == races.static.files_checked
        assert races.guard_model is races.static.guard_model

    def test_violation_format_is_clickable(self):
        violations, _ = lint(
            "def f(items=[]):\n    pass\n", "workloads/x.py"
        )
        line = violations[0].format()
        assert line.startswith("workloads/x.py:1:")
        assert "RN004[mutable-default]" in line

    def test_records_round_trip_summary(self):
        report = lint_paths()
        records = report.as_records()
        assert records[-1]["t"] == "lint_summary"
        assert records[-1]["violations"] == 0
