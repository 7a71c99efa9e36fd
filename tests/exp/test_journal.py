"""The batch journal WAL: append, replay, torn tails, resume state."""

import json

from repro.exp.journal import (
    JOURNAL_SCHEMA,
    BatchJournal,
    journal_path_for,
)


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


class TestJournalPlacement:
    def test_journal_lives_beside_the_cache_root_not_inside(self, tmp_path):
        """Inside the root, the scanner would classify it foreign and
        ``cache gc --foreign`` could eat the recovery log."""
        root = tmp_path / ".repro-cache"
        path = journal_path_for(root)
        assert path.parent == root.parent
        assert path.name == ".repro-cache.journal.jsonl"
