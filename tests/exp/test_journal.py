"""The batch journal WAL: append, replay, torn tails, resume state."""

import json
import os
import re
import shutil
from pathlib import Path

from repro.exp.batch import resume_batch, run_batch
from repro.exp.grid import flatten, table3_grid
from repro.exp.journal import (
    JOURNAL_SCHEMA,
    BatchJournal,
    journal_path_for,
)
from repro.exp.spec import RunSpec
from repro.exp.supervise import SupervisorPolicy
from repro.faults.harness import HarnessChaosPlan, HarnessChaosProfile

#: Journals written by an earlier version of the orchestrator.
GOLDEN = Path(__file__).parent / "golden"


def mask_wall(text):
    """Blank the one host-time value a journal records."""
    return re.sub(r'"wall_s": [^,}]+', '"wall_s": "<host>"', text)


def write_segment(journal, batch="b1", fps=("f1", "f2"), end=True):
    journal.begin(
        batch,
        list(fps),
        {fp: {"workload": "ParMult", "seed": i} for i, fp in enumerate(fps)},
        jobs=2,
    )
    for fp in fps:
        journal.spec_event("submitted", fp, attempt=1)
        journal.spec_event("finished", fp, cached=False)
    if end:
        journal.end({"unique": len(fps), "results_sha256": "abc123"})


class TestAppendAndReplay:
    def test_round_trip(self, tmp_path):
        journal = BatchJournal(tmp_path / "batch.journal.jsonl")
        write_segment(journal)
        replay = BatchJournal.replay(journal.path)
        assert replay.corrupt_lines == 0
        segment = replay.last
        assert segment.batch == "b1"
        assert segment.order == ["f1", "f2"]
        assert segment.finished == ["f1", "f2"]
        assert segment.incomplete == []
        assert segment.ended
        assert not segment.aborted
        assert segment.results_sha256 == "abc123"
        assert segment.spec_keys["f1"]["workload"] == "ParMult"

    def test_missing_file_replays_empty(self, tmp_path):
        replay = BatchJournal.replay(tmp_path / "never-written.jsonl")
        assert replay.batches == []
        assert replay.last is None

    def test_each_append_is_flushed_to_disk(self, tmp_path):
        """The crash-safety contract: a record is durable the moment
        ``append`` returns, not when some handle eventually closes."""
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.append({"t": "probe"})
        raw = journal.path.read_text()
        assert json.loads(raw.splitlines()[0]) == {"t": "probe"}

    def test_multiple_segments_replay_in_order(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        write_segment(journal, batch="first", fps=("a",))
        write_segment(journal, batch="second", fps=("b", "c"))
        replay = BatchJournal.replay(journal.path)
        assert [segment.batch for segment in replay.batches] == [
            "first", "second",
        ]
        assert replay.last.batch == "second"


class TestCrashShapes:
    def test_torn_tail_is_counted_not_fatal(self, tmp_path):
        """A kill -9 mid-append leaves half a JSON line; replay must
        skip it and keep every record before it."""
        journal = BatchJournal(tmp_path / "j.jsonl")
        write_segment(journal, end=False)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"t": "finished", "fp": "f3", "cach')
        replay = BatchJournal.replay(journal.path)
        assert replay.corrupt_lines == 1
        assert replay.last.finished == ["f1", "f2"]
        assert not replay.last.ended

    def test_a_resume_after_a_torn_tail_starts_its_own_segment(
        self, tmp_path
    ):
        """Crash, resume, crash again, resume again: each ``batch_begin``
        lands on a fresh line, so replay drops only the two torn records
        and files every other record under the segment that wrote it."""
        journal = BatchJournal(tmp_path / "j.jsonl")

        def tear():
            with open(journal.path, "a", encoding="utf-8") as handle:
                handle.write('{"t": "finished", "fp": "f9", "cach')

        write_segment(journal, batch="b1", fps=("f1", "f2"), end=False)
        journal.spec_event("submitted", "f3", attempt=1)
        tear()
        write_segment(journal, batch="b1", fps=("f3", "f4"), end=False)
        tear()
        write_segment(journal, batch="b1", fps=("f4",))
        replay = BatchJournal.replay(journal.path)
        assert replay.corrupt_lines == 2
        assert [s.order for s in replay.batches] == [
            ["f1", "f2"], ["f3", "f4"], ["f4"],
        ]
        assert [s.states for s in replay.batches] == [
            {"f1": "finished", "f2": "finished", "f3": "submitted"},
            {"f3": "finished", "f4": "finished"},
            {"f4": "finished"},
        ]
        assert [s.ended for s in replay.batches] == [False, False, True]

    def test_crash_leaves_no_terminal_marker(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b1", ["f1"], {"f1": {"workload": "X"}}, jobs=1)
        journal.spec_event("submitted", "f1", attempt=1)
        segment = BatchJournal.replay(journal.path).last
        assert not segment.ended
        assert not segment.aborted
        assert segment.incomplete == ["f1"]

    def test_clean_abort_is_distinguishable_from_a_crash(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b1", ["f1"], {"f1": {"workload": "X"}}, jobs=1)
        journal.aborted("KeyboardInterrupt")
        segment = BatchJournal.replay(journal.path).last
        assert segment.aborted
        assert not segment.ended

    def test_failed_records_accumulate_attempt_counts(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b1", ["f1"], {"f1": {"workload": "X"}}, jobs=1)
        journal.spec_event("failed", "f1", attempt=1, error="boom")
        journal.spec_event("failed", "f1", attempt=2, error="boom")
        segment = BatchJournal.replay(journal.path).last
        assert segment.failures == {"f1": 2}
        assert segment.states["f1"] == "failed"

    def test_quarantine_is_terminal(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b1", ["f1"], {"f1": {"workload": "X"}}, jobs=1)
        journal.spec_event("failed", "f1", attempt=1, error="boom")
        journal.spec_event("quarantined", "f1", attempts=1, error="boom")
        segment = BatchJournal.replay(journal.path).last
        assert segment.incomplete == []
        assert segment.states["f1"] == "quarantined"

    def test_foreign_schema_segment_is_skipped(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.append(
            {"t": "batch_begin", "schema": "someone-else/v9", "batch": "x",
             "order": ["f9"], "specs": {}}
        )
        journal.spec_event("finished", "f9")
        write_segment(journal, batch="ours", fps=("f1",))
        replay = BatchJournal.replay(journal.path)
        assert [segment.batch for segment in replay.batches] == ["ours"]
        assert replay.corrupt_lines == 1

    def test_unknown_record_kinds_are_ignored(self, tmp_path):
        """Forward compatibility: informational records (retry,
        pool_recycle, and whatever comes next) must not break replay."""
        journal = BatchJournal(tmp_path / "j.jsonl")
        journal.begin("b1", ["f1"], {"f1": {"workload": "X"}}, jobs=1)
        journal.append({"t": "pool_recycle", "reason": "hung worker"})
        journal.append({"t": "retry", "fp": "f1", "attempt": 1})
        journal.spec_event("finished", "f1", cached=False)
        segment = BatchJournal.replay(journal.path).last
        assert segment.finished == ["f1"]

    def test_schema_constant_is_recorded_on_begin(self, tmp_path):
        journal = BatchJournal(tmp_path / "j.jsonl")
        write_segment(journal)
        first = json.loads(journal.path.read_text().splitlines()[0])
        assert first["schema"] == JOURNAL_SCHEMA


class TestPinnedFormat:
    """``journal_serial.jsonl`` is a serial, failure-free batch;
    ``journal_faults.jsonl`` is a pool that died under an always-kill
    chaos plan and fell back to serial, with a poison spec quarantined
    and the closing ``batch_end`` torn in half.  ``journal_faults.json``
    holds what that version's replay made of it, and the results hash
    of the uninterrupted batch."""

    def test_a_serial_batch_writes_the_pinned_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_batch(
            flatten(table3_grid(apps=["ParMult", "Gfetch"], quick=True)),
            journal=BatchJournal(path),
        )
        pinned = (GOLDEN / "journal_serial.jsonl").read_text()
        assert mask_wall(path.read_text()) == pinned

    def test_a_faulty_journal_replays_to_the_pinned_state(self):
        expected = json.loads((GOLDEN / "journal_faults.json").read_text())
        replay = BatchJournal.replay(GOLDEN / "journal_faults.jsonl")
        segment = replay.last
        assert replay.corrupt_lines == expected["corrupt_lines"]
        assert len(replay.batches) == expected["segments"]
        for name in (
            "batch", "order", "spec_keys", "states", "failures", "ended",
            "aborted", "results_sha256", "finished", "incomplete",
        ):
            assert getattr(segment, name) == expected[name], name

    def test_a_faulty_journal_resumes_to_the_uninterrupted_results(
        self, tmp_path
    ):
        expected = json.loads((GOLDEN / "journal_faults.json").read_text())
        path = tmp_path / "j.jsonl"
        shutil.copy(GOLDEN / "journal_faults.jsonl", path)
        resumed = resume_batch(
            path, policy=SupervisorPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        assert resumed.executed == 3 and len(resumed.quarantined) == 1
        assert resumed.results_sha256 == \
            expected["uninterrupted_results_sha256"]

    def test_the_live_batch_is_the_replayed_fold(self, tmp_path, monkeypatch):
        """The batch's counters and per-spec state are the journal's fold
        while it runs, and the same fold of the file afterwards."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool anywhere
        plan = HarnessChaosPlan(
            HarnessChaosProfile(name="always-kill", kill_rate=1.0)
        )
        policy = SupervisorPolicy(
            max_attempts=2, backoff_base_s=0.0, max_pool_recycles=1,
            chaos=plan,
        )
        specs = [RunSpec(workload="nope", quick=True)] + flatten(
            table3_grid(apps=["ParMult"], quick=True)
        )
        path = tmp_path / "j.jsonl"
        batch = run_batch(
            specs, jobs=2, policy=policy, journal=BatchJournal(path)
        )
        replayed = BatchJournal.replay(path).last
        assert batch.log.states == replayed.states
        assert batch.log.failures == replayed.failures
        assert batch.quarantined == replayed.quarantined != {}
        assert batch.supervision == replayed.stats
        assert batch.supervision.serial_fallbacks == 1
        assert batch.executed == replayed.stats.executed == len(specs) - 1
        assert batch.results_sha256 == replayed.results_sha256


class TestJournalPlacement:
    def test_journal_lives_beside_the_cache_root_not_inside(self, tmp_path):
        """Inside the root, the scanner would classify it foreign and
        ``cache gc --foreign`` could eat the recovery log."""
        root = tmp_path / ".repro-cache"
        path = journal_path_for(root)
        assert path.parent == root.parent
        assert path.name == ".repro-cache.journal.jsonl"
