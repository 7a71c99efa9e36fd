"""The batch journal: an append-only JSONL WAL for crash-safe sweeps.

The result cache makes *completed* work durable; the journal makes the
*batch itself* durable.  Every ``run_batch`` invocation appends one
record per orchestration event — ``batch_begin`` (with the full spec
keys, so the batch can be rebuilt from the journal alone),
``submitted``, ``finished``, ``failed``, ``retry``, ``quarantined``,
``pool_recycle``, ``serial_fallback``, ``cache_corrupted``, ``aborted``,
``batch_end`` — each flushed to the OS before the orchestrator proceeds.
A ``kill -9`` mid-batch therefore loses at most the line being written;
``repro-numa batch --resume`` replays the journal, reconstructs the
exact spec list, restores quarantine/attempt state, and re-runs the
batch against the cache, which serves everything that completed before
the crash.

The journal is also the batch's only account of itself.  Every record
goes through :meth:`BatchJournal.append`, which writes it (when the
journal has a file) and folds it into a :class:`ReplayedBatch`; the
supervisor reads attempt counts from that fold and the batch summary is
its final state.  :meth:`BatchJournal.replay` is the same fold run over
the file's lines, so a replayed segment and the live batch that wrote
it agree by construction.  A batch without a file still has a journal:
``BatchJournal()`` keeps the fold and writes nothing.

Replay is deliberately paranoid: unparseable lines (the torn tail of a
crashed append, a hand-edited file) are counted and skipped, never
fatal, and every record type it does not recognize is ignored — newer
journals stay readable by older readers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Union

#: Journal-format version, recorded on every ``batch_begin``.  Bump when
#: the record layout changes incompatibly; replay skips foreign segments.
JOURNAL_SCHEMA = "repro-exp-journal/v1"


@dataclass
class SuperviseStats:
    """What the supervision layer did for one batch, counted off its
    journal records."""

    #: Failed attempts that were retried (``retry`` records).
    retries: int = 0
    #: Failures caused by per-spec timeouts.
    timeouts: int = 0
    #: Specs abandoned after exhausting their attempts.
    quarantined: int = 0
    #: Process pools torn down and rebuilt (hang or crash).
    pool_recycles: int = 0
    #: Times the supervisor gave up on multiprocessing mid-batch.
    serial_fallbacks: int = 0
    #: Specs that produced a fresh outcome.
    executed: int = 0


@dataclass
class ReplayedBatch:
    """One ``batch_begin`` … ``batch_end`` segment, folded record by record."""

    #: Content address of the batch (fingerprint over its spec list).
    batch: str
    #: Submitted fingerprints in original order (duplicates preserved).
    order: List[str] = field(default_factory=list)
    #: Fingerprint → canonical spec key (:meth:`RunSpec.key` view).
    spec_keys: Dict[str, Mapping[str, object]] = field(default_factory=dict)
    #: Fingerprint → last observed state: ``submitted``, ``failed``,
    #: ``finished`` or ``quarantined``.
    states: Dict[str, str] = field(default_factory=dict)
    #: Fingerprint → failed attempts so far: the largest ``attempt`` of
    #: its ``failed`` records or ``attempts`` of its ``quarantined`` one.
    failures: Dict[str, int] = field(default_factory=dict)
    #: Fingerprint → the error its latest failure or quarantine gave.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Fingerprints finished from the result cache.
    cached: Set[str] = field(default_factory=set)
    #: Supervision counters of this segment.
    stats: SuperviseStats = field(default_factory=SuperviseStats)
    #: Whether the segment continues an earlier one (see
    #: :meth:`BatchJournal.begin`).
    resumed: bool = False
    #: Whether the segment closed with a ``batch_end`` record.
    ended: bool = False
    #: Whether the segment closed with a clean ``aborted`` record
    #: (KeyboardInterrupt); a crash (kill -9) leaves neither marker.
    aborted: bool = False
    #: The ``results_sha256`` the closing ``batch_end`` recorded, if any.
    results_sha256: Optional[str] = None

    @property
    def finished(self) -> List[str]:
        """Fingerprints that completed (simulated or served from cache)."""
        return [fp for fp in dict.fromkeys(self.order)
                if self.states.get(fp) == "finished"]

    @property
    def incomplete(self) -> List[str]:
        """Fingerprints with no terminal state (lost to the crash)."""
        return [
            fp for fp in dict.fromkeys(self.order)
            if self.states.get(fp) not in ("finished", "quarantined")
        ]

    @property
    def quarantined(self) -> Dict[str, str]:
        """Fingerprint → error, for the specs this segment quarantined."""
        return {
            fp: self.errors.get(fp, "")
            for fp, state in self.states.items() if state == "quarantined"
        }

    def fold(self, record: Mapping[str, object]) -> None:
        """Apply one record of this segment; unknown kinds are ignored."""
        kind = record.get("t")
        fp = str(record.get("fp", ""))
        if kind == "batch_end":
            self.ended = True
            sha = record.get("results_sha256")
            self.results_sha256 = str(sha) if sha else None
        elif kind == "aborted":
            self.aborted = True
        elif kind == "submitted":
            self.states[fp] = "submitted"
        elif kind == "finished":
            self.states[fp] = "finished"
            if record.get("cached"):
                self.cached.add(fp)
            else:
                self.stats.executed += 1
        elif kind in ("failed", "quarantined"):
            # Both records carry the attempts made so far, so a segment
            # that only re-quarantined a spec keeps its spent budget.
            self.states[fp] = str(kind)
            key = "attempt" if kind == "failed" else "attempts"
            attempts = record.get(key)
            if isinstance(attempts, int):
                self.failures[fp] = max(self.failures.get(fp, 0), attempts)
            self.errors[fp] = str(record.get("error", ""))
            if kind == "quarantined":
                self.stats.quarantined += 1
            elif record.get("reason") == "timeout":
                self.stats.timeouts += 1
        elif kind == "retry":
            self.stats.retries += 1
        elif kind == "pool_recycle":
            self.stats.pool_recycles += 1
        elif kind == "serial_fallback":
            self.stats.serial_fallbacks += 1


@dataclass
class JournalReplay:
    """Every segment one journal holds, folded record by record."""

    batches: List[ReplayedBatch] = field(default_factory=list)
    #: Lines that did not parse (torn tail of a crashed append).
    corrupt_lines: int = 0
    #: The segment records fold into (None after a foreign ``batch_begin``).
    current: Optional[ReplayedBatch] = None

    @property
    def last(self) -> Optional[ReplayedBatch]:
        """The most recent batch segment, or None for an empty journal."""
        return self.batches[-1] if self.batches else None

    def fold(self, record: Mapping[str, object]) -> None:
        """Apply one record: a ``batch_begin`` opens a segment (or, with a
        foreign schema, skips everything up to the next one)."""
        if record.get("t") != "batch_begin":
            if self.current is not None:
                self.current.fold(record)
            return
        if record.get("schema") != JOURNAL_SCHEMA:
            self.current = None
            self.corrupt_lines += 1
            return
        self.current = ReplayedBatch(
            batch=str(record.get("batch", "")),
            order=[str(fp) for fp in record.get("order", [])],
            spec_keys={
                str(fp): key
                for fp, key in dict(record.get("specs", {})).items()
            },
        )
        self.batches.append(self.current)


class BatchJournal:
    """Append-only JSONL writer, and the fold of what it appended.

    Appends open/close the file per record: slower than a held handle,
    but immune to handle inheritance across pool forks and guaranteed
    flushed when the append returns — the property the crash-recovery
    contract rests on.  Record rates are per-spec, not per-operation, so
    the cost is noise.  ``path=None`` keeps the fold and writes nothing.
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else None
        #: Everything appended through this journal, folded.
        self.state = JournalReplay()

    @classmethod
    def reopen(cls, path: Union[str, Path]) -> "BatchJournal":
        """A journal on *path* whose fold starts from the file's replay,
        so its next :meth:`begin` resumes the file's last segment."""
        journal = cls(path)
        journal.state = cls.replay(path)
        return journal

    # -- writing -------------------------------------------------------------

    def append(self, record: Mapping[str, object]) -> None:
        """Append one record as a JSON line, flushed before returning,
        and fold it into :attr:`state`."""
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            line = json.dumps(dict(record), sort_keys=True, default=str)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        self.state.fold(record)

    def begin(
        self,
        batch: str,
        order: List[str],
        spec_keys: Mapping[str, Mapping[str, object]],
        jobs: int,
    ) -> ReplayedBatch:
        """Open a batch segment, recording enough to rebuild the batch.

        A crash can leave the file ending in a torn line; the segment
        starts on a fresh one, so replay drops only the torn record.
        When the journal already holds a segment — :meth:`reopen` loads
        the file's — the new one starts from its attempt counts and
        errors: that is what resuming a batch is.
        """
        prior = self.state.last
        if self.path is not None:
            try:
                with open(self.path, "rb") as handle:
                    handle.seek(-1, os.SEEK_END)
                    torn = handle.read(1) != b"\n"
            except OSError:  # no journal yet, or an empty one
                torn = False
            if torn:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write("\n")
        self.append(
            {
                "t": "batch_begin",
                "schema": JOURNAL_SCHEMA,
                "batch": batch,
                "order": list(order),
                "specs": {fp: dict(key) for fp, key in spec_keys.items()},
                "jobs": jobs,
            }
        )
        segment = self.state.batches[-1]
        if prior is not None:
            segment.failures.update(prior.failures)
            segment.errors.update(prior.errors)
            segment.resumed = True
        return segment

    def spec_event(self, t: str, fingerprint: str, **extra: object) -> None:
        """Append one per-spec lifecycle record."""
        self.append({"t": t, "fp": fingerprint, **extra})

    def end(self, summary: Mapping[str, object]) -> None:
        """Close the segment with the batch summary."""
        self.append({"t": "batch_end", **summary})

    def aborted(self, reason: str) -> None:
        """Close the segment with a clean abort marker (^C, not a crash)."""
        self.append({"t": "aborted", "reason": reason})

    # -- replay --------------------------------------------------------------

    @classmethod
    def replay(cls, path: Union[str, Path]) -> JournalReplay:
        """Fold every record of a journal file.

        Never raises on content: missing files replay empty, torn or
        foreign lines are counted in ``corrupt_lines`` and skipped.
        """
        replay = JournalReplay()
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError:
            return replay
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                replay.fold(record)
            else:
                replay.corrupt_lines += 1
        return replay


def journal_path_for(cache_root: Union[str, Path]) -> Path:
    """Where the journal for a cache directory lives: beside it.

    The journal must not live *inside* the cache root — the scanner
    would classify it as foreign and ``cache gc --foreign`` could eat
    the recovery log.
    """
    root = Path(cache_root)
    return root.with_name(root.name + ".journal.jsonl")
