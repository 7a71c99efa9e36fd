"""Protocol model checker: clean pass, tamper detection, reachability."""

import pytest

from repro.analysis.paper import TABLE_1, TABLE_2
from repro.check.modelcheck import run_model_check
from repro.cli import main
from repro.core import transitions
from repro.core.state import PageState, PlacementDecision
from repro.core.transitions import ActionSpec, Cleanup, StateKey
from repro.errors import ConfigurationError


class TestCleanRun:
    def test_the_implementation_matches_the_paper(self):
        report = run_model_check()
        assert report.ok, report.format()
        assert report.exit_code == 0

    def test_all_sixteen_cells_are_verified(self):
        report = run_model_check()
        assert report.cells_checked == 16
        assert len(TABLE_1) == len(TABLE_2) == 8

    def test_reachable_space_is_explored(self):
        report = run_model_check(n_cpus=3)
        # UNTOUCHED, GW, 3x LW, and the non-empty RO copy subsets.
        assert report.n_configs == 12
        assert report.unreached_cells == []

    def test_more_cpus_only_grow_the_space(self):
        assert run_model_check(n_cpus=4).n_configs > 12

    def test_report_records_include_summary(self):
        records = run_model_check().as_records()
        assert records[-1]["t"] == "modelcheck_summary"
        assert records[-1]["ok"] is True


class TestTooFewCpus:
    """Below two CPUs no page is owned elsewhere: a usage error, not a
    protocol violation."""

    @pytest.mark.parametrize("n_cpus", [0, 1])
    def test_checker_rejects_the_machine(self, n_cpus):
        with pytest.raises(ConfigurationError, match="at least 2 cpus"):
            run_model_check(n_cpus=n_cpus)

    @pytest.mark.parametrize("n_cpus", ["0", "1"])
    def test_cli_exits_with_the_usage_code(self, n_cpus, capsys):
        assert main(["modelcheck", "--cpus", n_cpus]) == 2
        captured = capsys.readouterr()
        assert "VERDICT" not in captured.out
        assert "at least 2 cpus" in captured.err

    def test_two_cpus_is_enough(self):
        assert run_model_check(n_cpus=2).ok


class TestTLBLayer:
    """Layer 4: cached-translation reachability over the same walk."""

    def test_tlb_space_is_explored_and_clean(self):
        report = run_model_check()
        assert report.n_tlb_configs > report.n_configs
        assert report.tlb_failures == []

    def test_more_cpus_grow_the_tlb_space(self):
        small = run_model_check(n_cpus=3).n_tlb_configs
        assert run_model_check(n_cpus=4).n_tlb_configs > small

    def test_missed_shootdown_is_a_tlb_failure(self, monkeypatch):
        # Steal a READ_ONLY page for writing without flushing the other
        # readers: their cached translations survive into LOCAL_WRITABLE,
        # which the TLB invariant forbids.
        key = (PlacementDecision.LOCAL, StateKey.READ_ONLY)
        spec = transitions.WRITE_TABLE[key]
        monkeypatch.setitem(
            transitions.WRITE_TABLE,
            key,
            ActionSpec(Cleanup.NONE, spec.copy_to_local, spec.new_state),
        )
        report = run_model_check()
        assert not report.ok
        assert any("cached by" in m for m in report.tlb_failures)
        assert "TLB coherence failures" in report.format()

    def test_summary_record_counts_tlb_configs(self):
        records = run_model_check().as_records()
        assert records[-1]["n_tlb_configs"] > 0


class TestTamperDetection:
    """Corrupt the live tables; every layer must notice."""

    def test_wrong_new_state_is_a_mismatch(self, monkeypatch):
        key = (PlacementDecision.LOCAL, StateKey.READ_ONLY)
        monkeypatch.setitem(
            transitions.READ_TABLE,
            key,
            ActionSpec(Cleanup.NONE, True, PageState.GLOBAL_WRITABLE),
        )
        report = run_model_check()
        assert not report.ok
        assert any("read/local" in m for m in report.mismatches)

    def test_missing_cell_is_a_totality_failure(self, monkeypatch):
        pruned = dict(transitions.WRITE_TABLE)
        del pruned[(PlacementDecision.LOCAL, StateKey.GLOBAL_WRITABLE)]
        monkeypatch.setattr(transitions, "WRITE_TABLE", pruned)
        report = run_model_check()
        assert not report.ok
        assert report.totality_failures

    def test_skipped_sync_is_a_semantic_failure(self, monkeypatch):
        # "Forget" to sync the other owner's dirty copy before stealing
        # the page: semantically a data-loss bug even if self-consistent.
        key = (PlacementDecision.LOCAL, StateKey.LOCAL_WRITABLE_OTHER)
        monkeypatch.setitem(
            transitions.READ_TABLE,
            key,
            ActionSpec(Cleanup.NONE, True, PageState.READ_ONLY),
        )
        report = run_model_check()
        assert not report.ok
        assert any("sync" in m for m in report.semantic_failures)

    def test_stale_copy_leak_is_an_invariant_failure(self, monkeypatch):
        # Promote to GLOBAL_WRITABLE without flushing the replicas: the
        # abstract walk reaches a GW config that still has local copies.
        key = (PlacementDecision.GLOBAL, StateKey.READ_ONLY)
        monkeypatch.setitem(
            transitions.READ_TABLE,
            key,
            ActionSpec(Cleanup.NONE, False, PageState.GLOBAL_WRITABLE),
        )
        monkeypatch.setitem(
            transitions.WRITE_TABLE,
            key,
            ActionSpec(Cleanup.NONE, False, PageState.GLOBAL_WRITABLE),
        )
        report = run_model_check()
        assert not report.ok
        assert report.invariant_failures

    def test_tampering_never_crashes_the_checker(self, monkeypatch):
        # Whatever the corruption, the checker reports rather than dies.
        for key in list(transitions.READ_TABLE):
            monkeypatch.setitem(
                transitions.READ_TABLE,
                key,
                ActionSpec(Cleanup.NONE, False, PageState.GLOBAL_WRITABLE),
            )
        report = run_model_check()
        assert not report.ok
        assert "FAILED" in report.format()


class TestTotalitySweep:
    """Property-style sweep: the tables are total over their domain."""

    @pytest.mark.parametrize("kind", list(transitions.AccessKind))
    @pytest.mark.parametrize(
        "decision", [PlacementDecision.LOCAL, PlacementDecision.GLOBAL]
    )
    @pytest.mark.parametrize("key", list(StateKey))
    def test_every_cell_resolves(self, kind, decision, key):
        spec = transitions.lookup(kind, decision, key)
        assert isinstance(spec, ActionSpec)
        lines = spec.describe()
        assert len(lines) == 3


class TestMultilevelLayer:
    """Layer 5: the same-socket remote-mapping move on socket machines."""

    def _topology(self):
        from repro.machine.topology import resolve_machine

        return resolve_machine("2socket8").topology

    def test_skipped_without_a_topology(self):
        report = run_model_check()
        assert report.n_ml_configs == 0
        assert report.ml_failures == []
        assert "reachable multi-level" not in report.format()

    def test_flat_topology_skips_the_layer(self):
        from repro.machine.topology import flat_topology

        report = run_model_check(topology=flat_topology(7))
        assert report.n_ml_configs == 0

    def test_multilevel_walk_is_explored_and_clean(self):
        report = run_model_check(topology=self._topology())
        assert report.ok, report.format()
        # Remote-mapper sets strictly enlarge the plain abstract space.
        assert report.n_ml_configs > run_model_check(n_cpus=4).n_configs
        assert "reachable multi-level" in report.format()

    def test_summary_record_carries_the_ml_count(self):
        report = run_model_check(topology=self._topology())
        summary = report.as_records()[-1]
        assert summary["n_ml_configs"] == report.n_ml_configs

    def test_invariant_rejects_malformed_remote_sets(self):
        from repro.check.modelcheck import _ml_invariant

        lw = PageState.LOCAL_WRITABLE
        # cpu 1 shares cpu 0's socket: a legal remote mapping.
        assert _ml_invariant((lw, 0, frozenset({0}), frozenset({1}))) is None
        # cpu 2 sits on the other socket: the override never builds this.
        bad = _ml_invariant((lw, 0, frozenset({0}), frozenset({2})))
        assert bad is not None and "cross-socket" in bad
        # a remote mapper that is also the owner, or also holds a copy
        assert _ml_invariant((lw, 0, frozenset({0}), frozenset({0})))
        assert _ml_invariant(
            (lw, 0, frozenset({0, 1}), frozenset({1}))
        )
        # mappers need a LOCAL_WRITABLE frame to point into
        assert _ml_invariant(
            (PageState.GLOBAL_WRITABLE, None, frozenset(), frozenset({1}))
        )

    def test_walk_finishes_even_with_the_invariant_silenced(
        self, monkeypatch
    ):
        from repro.check import modelcheck

        monkeypatch.setattr(
            modelcheck, "_ml_invariant", lambda config: None
        )
        report = run_model_check(topology=self._topology())
        assert report.n_ml_configs > 0
        assert report.ml_failures == []
