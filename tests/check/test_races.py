"""Race detector: static rules, dynamic lockset/HB layer, fixtures."""

import pytest

from repro.check.lint import ALL_RULES, RACE_RULES, lint_source
from repro.check.races import RaceDetector, run_race_check
from repro.check.fixtures import (
    run_missed_shootdown_fixture,
    run_unguarded_write_fixture,
)
from repro.core.state import PageState
from repro.errors import ProtocolViolation

UNT = PageState.UNTOUCHED
RO = PageState.READ_ONLY
LW = PageState.LOCAL_WRITABLE


def _violations(source: str, relpath: str):
    found, _ = lint_source(source, relpath, rules=RACE_RULES)
    return found


class TestSharedGuardRule:
    def test_unguarded_entry_write_is_flagged(self):
        source = "def rogue(entry):\n    entry.state = 1\n"
        (violation,) = _violations(source, "sim/engine.py")
        assert violation.rule_id == "RN008"
        assert "state" in violation.message

    def test_suppression_comment_honored(self):
        source = (
            "def rogue(entry):\n"
            "    entry.state = 1  # repro-lint: allow[shared-guard]\n"
        )
        assert _violations(source, "sim/engine.py") == []

    def test_funnel_module_is_clean(self):
        source = "def apply(entry):\n    entry.state = 1\n"
        assert _violations(source, "core/actions.py") == []


class TestShootdownPairRule:
    def test_bare_mmu_mutation_is_flagged(self):
        source = "def f(cpu, vpage):\n    cpu.mmu.remove(vpage)\n"
        (violation,) = _violations(source, "vm/pmap.py")
        assert violation.rule_id == "RN010"
        assert "missed shootdown" in violation.message

    def test_paired_invalidate_is_clean(self):
        source = (
            "def f(cpu, vpage):\n"
            "    cpu.mmu.remove(vpage)\n"
            "    cpu.tlb.invalidate(vpage)\n"
        )
        assert _violations(source, "vm/pmap.py") == []

    def test_mmu_module_itself_is_exempt(self):
        source = "def f(self, vpage):\n    self._mmu.remove(vpage)\n"
        assert _violations(source, "machine/mmu.py") == []


class TestPackageIsClean:
    def test_full_rule_set_over_the_tree(self):
        from repro.check import lint_paths

        report = lint_paths(rules=ALL_RULES)
        assert report.ok, report.format()


class TestFixtures:
    def test_unguarded_write_fixture_is_caught(self):
        detector = run_unguarded_write_fixture()
        kinds = [r.kind for r in detector.reports]
        assert "unguarded-state-write" in kinds
        report = next(
            r for r in detector.reports
            if r.kind == "unguarded-state-write"
        )
        # The trail carries the events leading up to the rogue write,
        # and the details name the contradiction.
        assert report.events
        assert report.details["expected_state"] != (
            report.details["announced_state"]
        )
        assert report.details["realizable"] is True
        assert "legal_step_exists" in report.details

    def test_missed_shootdown_fixture_is_caught(self):
        detector = run_missed_shootdown_fixture()
        kinds = [r.kind for r in detector.reports]
        assert "missed-shootdown" in kinds
        report = next(
            r for r in detector.reports if r.kind == "missed-shootdown"
        )
        assert report.events
        assert report.cpu == 0
        # The model checker confirms a suppressed shootdown can reach
        # an invariant-violating configuration.
        assert report.details["realizable"] is True

    def test_fixture_output_is_deterministic(self):
        first = run_unguarded_write_fixture()
        second = run_unguarded_write_fixture()
        assert first.as_records() == second.as_records()
        assert first.format() == second.format()

    def test_formatted_trails_name_every_event(self):
        """The detector keys trail events ``"t"``, the discriminator
        ``format_trail`` prints; any other key renders every line as
        ``?:``."""
        race = run_unguarded_write_fixture().reports[0].format()
        assert "transition:" in race and "?:" not in race

    @pytest.mark.parametrize(
        "steps, expected",
        [
            pytest.param(
                [(0, UNT, RO), (1, LW, RO), (2, RO, LW)],
                [("unguarded-state-write", 1, []), ("lockset-empty", 2, [])],
                id="bypass-then-unordered-access",
            ),
            pytest.param(
                [(0, UNT, RO), (1, LW, RO), (2, RO, LW), (2, LW, RO)],
                [("unguarded-state-write", 1, []), ("lockset-empty", 2, [])],
                id="same-cpu-again-is-ordered",
            ),
            pytest.param(
                [(0, UNT, RO), (2, RO, LW)],
                [],
                id="no-bypass-no-report",
            ),
            pytest.param(
                [(0, UNT, RO), (1, LW, RO), "free", (0, UNT, RO),
                 (3, RO, LW)],
                [("unguarded-state-write", 1, [])],
                id="free-clears-the-page",
            ),
        ],
    )
    def test_lockset_rule(self, steps, expected):
        """An access after the page's funnel was bypassed is a race
        unless happens-before orders it; freeing the page forgets it."""
        detector = RaceDetector(raise_on_race=False)
        for step in steps:
            if step == "free":
                detector.on_page_freed(1)
            else:
                cpu, old, new = step
                detector.on_transition(1, cpu, old, new, False)
        assert [
            (r.kind, r.cpu, r.details["lockset"]) for r in detector.reports
        ] == expected

    def test_raise_mode_converts_report_to_violation(self):
        detector = RaceDetector(raise_on_race=True)
        with pytest.raises(ProtocolViolation) as exc:
            detector._report("missed-shootdown", "synthetic", cpu=0)
        assert exc.value.check == "race:missed-shootdown"
        # The collecting list still records it for post-mortem.
        assert detector.reports


class TestDetectorPlumbing:
    def test_counters_shape(self):
        detector = RaceDetector(raise_on_race=False)
        counters = detector.counters()
        assert set(counters) >= {
            "races_accesses",
            "races_sync_edges",
            "races_lock_events",
            "races_candidates",
            "races_reported",
        }
        assert all(v == 0 for v in counters.values())

    def test_publish_metrics_exports_counter_deltas(self):
        from repro.obs.metrics import MetricsRegistry

        detector = RaceDetector(raise_on_race=False)
        detector.accesses = 5
        registry = MetricsRegistry()
        detector.publish_metrics(registry)
        detector.accesses = 9
        detector.publish_metrics(registry)
        records = {
            r["name"]: r["value"] for r in registry.as_records()
        }
        assert records["races_accesses"] == 9


class TestRunRaceCheck:
    def test_static_only_is_clean(self):
        report = run_race_check(
            static=True, dynamic=False, fixtures=False
        )
        assert report.static is not None
        assert report.guard_model is not None
        assert report.ok
        assert report.exit_code == 0
        assert "races: OK" in report.format()

    def test_records_end_with_summary(self):
        report = run_race_check(
            static=True, dynamic=False, fixtures=False
        )
        records = report.as_records()
        assert records[-1] == {"t": "race_check_summary", "ok": True}

    def test_fixture_failure_flips_exit_code(self):
        report = run_race_check(
            static=False, dynamic=False, fixtures=False
        )
        report.fixtures["missed-shootdown"] = False
        assert not report.ok
        assert report.exit_code == 1
        assert "MISSED" in report.format()
