"""Static guard inference: site collection, classification, discipline."""

import ast

from repro.check.guards import (
    GUARD_FUNNEL,
    GUARD_MONITOR,
    GUARD_NONE,
    GUARD_SPINLOCK,
    GuardModel,
    MutationSite,
)
from repro.check.lint import collect_sites, infer_guards


def _sites(source: str, relpath: str):
    return collect_sites(ast.parse(source), relpath)


class TestSiteCollection:
    def test_monitor_method_assignment(self):
        source = (
            "class DirectoryEntry:\n"
            "    def bump(self):\n"
            "        self.move_count += 1\n"
        )
        sites = _sites(source, "core/directory.py")
        assert len(sites) == 1
        site = sites[0]
        assert site.field == "move_count"
        assert site.kind == "augassign"
        assert site.guard == GUARD_MONITOR
        assert site.function == "DirectoryEntry.bump"

    def test_funnel_module_assignment(self):
        source = "def apply(entry):\n    entry.state = 1\n"
        (site,) = _sites(source, "core/actions.py")
        assert site.guard == GUARD_FUNNEL

    def test_unguarded_entry_write_elsewhere(self):
        source = "def rogue(entry):\n    entry.state = 1\n"
        (site,) = _sites(source, "sim/engine.py")
        assert site.guard == GUARD_NONE
        assert site.field == "state"

    def test_entry_gating_skips_generic_receivers(self):
        # `state` is a common attribute name; outside the protocol
        # modules it only counts when the receiver looks like an entry.
        source = "def run(thread):\n    thread.state = 1\n"
        assert _sites(source, "sim/engine.py") == []

    def test_non_gated_field_counts_anywhere(self):
        source = "def f(self):\n    self.local_copies.add(0)\n"
        (site,) = _sites(source, "sim/engine.py")
        assert site.field == "local_copies"
        assert site.kind == "add"
        assert site.guard == GUARD_NONE

    def test_spinlock_span_covers_mutation(self):
        source = (
            "def f(entry, lock):\n"
            "    lock.acquire()\n"
            "    entry.owner = 2\n"
            "    lock.release()\n"
        )
        (site,) = _sites(source, "vm/pmap.py")
        assert site.guard == GUARD_SPINLOCK

    def test_mutation_outside_spinlock_span_is_unguarded(self):
        source = (
            "def f(entry, lock):\n"
            "    lock.acquire()\n"
            "    lock.release()\n"
            "    entry.owner = 2\n"
        )
        (site,) = _sites(source, "vm/pmap.py")
        assert site.guard == GUARD_NONE

    def test_item_assign_and_delete_kinds(self):
        source = (
            "class MMU:\n"
            "    def enter(self, v, e):\n"
            "        self._by_vpage[v] = e\n"
            "    def drop(self, f):\n"
            "        del self._by_frame[f]\n"
        )
        sites = _sites(source, "machine/mmu.py")
        kinds = {(s.field, s.kind) for s in sites}
        assert ("_by_vpage", "item-assign") in kinds
        assert ("_by_frame", "delete") in kinds
        assert all(s.guard == GUARD_MONITOR for s in sites)


class TestGuardModel:
    def _site(self, field, guard, line=1):
        return MutationSite(
            field=field,
            path="x.py",
            line=line,
            col=0,
            function="f",
            guard=guard,
            kind="assign",
        )

    def test_discipline_is_majority_vote(self):
        model = GuardModel(
            sites=[
                self._site("state", GUARD_FUNNEL, 1),
                self._site("state", GUARD_FUNNEL, 2),
                self._site("state", GUARD_MONITOR, 3),
            ]
        )
        assert model.discipline() == {"state": GUARD_FUNNEL}

    def test_unguarded_sites_do_not_vote(self):
        model = GuardModel(
            sites=[
                self._site("owner", GUARD_NONE, 1),
                self._site("owner", GUARD_NONE, 2),
                self._site("owner", GUARD_MONITOR, 3),
            ]
        )
        assert model.discipline() == {"owner": GUARD_MONITOR}
        assert len(model.deviants()) == 2
        assert not model.ok

    def test_tie_breaks_toward_stronger_guard(self):
        model = GuardModel(
            sites=[
                self._site("state", GUARD_MONITOR, 1),
                self._site("state", GUARD_FUNNEL, 2),
            ]
        )
        assert model.discipline() == {"state": GUARD_FUNNEL}

    def test_records_include_summary(self):
        model = GuardModel(
            sites=[self._site("state", GUARD_FUNNEL)], files_checked=1
        )
        records = model.as_records()
        assert records[-1]["t"] == "guard_summary"
        assert records[-1]["unguarded"] == 0
        assert records[0]["t"] == "guard_site"


class TestPackageInference:
    def test_clean_tree_has_no_unguarded_sites(self):
        model = infer_guards()
        assert model.ok, model.format()
        assert model.files_checked > 50

    def test_inferred_discipline_matches_the_design(self):
        discipline = infer_guards().discipline()
        # Directory-entry state flows through the transition funnel;
        # the MMU/TLB tables are monitor-private to their classes.
        assert discipline["state"] == GUARD_FUNNEL
        assert discipline["owner"] == GUARD_FUNNEL
        assert discipline["local_copies"] == GUARD_FUNNEL
        assert discipline["_by_vpage"] == GUARD_MONITOR
        assert discipline["_entries"] == GUARD_MONITOR

    def test_fixture_plants_are_excluded_from_the_default_scan(self):
        model = infer_guards()
        assert not any(
            s.path == "check/fixtures.py" for s in model.sites
        )

    def test_directory_declaration_matches_the_field_map(self):
        # core/directory.py declares its own guarded fields; the
        # detector's SHARED_FIELDS map must track every one of them.
        from repro.check.guards import SHARED_FIELDS
        from repro.core.directory import GUARDED_FIELDS

        for fname in GUARDED_FIELDS:
            assert fname in SHARED_FIELDS, fname
            assert "core/directory.py" in SHARED_FIELDS[fname], fname
