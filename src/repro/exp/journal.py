"""The batch journal: an append-only JSONL WAL for crash-safe sweeps.

The result cache makes *completed* work durable; the journal makes the
*batch itself* durable.  Every ``run_batch`` invocation that carries a
:class:`BatchJournal` appends one record per orchestration event —
``batch_begin`` (with the full spec keys, so the batch can be rebuilt
from the journal alone), ``submitted``, ``finished``, ``failed``,
``retry``, ``quarantined``, ``pool_recycle``, ``serial_fallback``,
``cache_corrupted``, ``aborted``, ``batch_end`` — each flushed to the OS
before the orchestrator proceeds.  A ``kill -9`` mid-batch therefore
loses at most the line being written; ``repro-numa batch --resume``
replays the journal, reconstructs the exact spec list, restores
quarantine/attempt state, and re-runs the batch against the cache, which
serves everything that completed before the crash.

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
from typing import Dict, List, Mapping, Optional, Union

#: Journal-format version, recorded on every ``batch_begin``.  Bump when
#: the record layout changes incompatibly; replay skips foreign segments.
JOURNAL_SCHEMA = "repro-exp-journal/v1"

#: Spec states a replayed journal can report, in lifecycle order.
SPEC_STATES = ("submitted", "failed", "finished", "quarantined")


@dataclass
class ReplayedBatch:
    """One ``batch_begin`` … ``batch_end`` segment, reconstructed."""

    #: Content address of the batch (fingerprint over its spec list).
    batch: str
    #: Submitted fingerprints in original order (duplicates preserved).
    order: List[str] = field(default_factory=list)
    #: Fingerprint → canonical spec key (:meth:`RunSpec.key` view).
    spec_keys: Dict[str, Mapping[str, object]] = field(default_factory=dict)
    #: Fingerprint → last observed state (one of :data:`SPEC_STATES`).
    states: Dict[str, str] = field(default_factory=dict)
    #: Fingerprint → failed attempts recorded (feeds resume quarantine).
    failures: Dict[str, int] = field(default_factory=dict)
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
        return [fp for fp in self.order_unique
                if self.states.get(fp) == "finished"]

    @property
    def order_unique(self) -> List[str]:
        """The submitted fingerprints, deduplicated, first-seen order."""
        seen: Dict[str, None] = {}
        for fp in self.order:
            seen.setdefault(fp)
        return list(seen)

    @property
    def incomplete(self) -> List[str]:
        """Fingerprints with no terminal state (lost to the crash)."""
        return [
            fp for fp in self.order_unique
            if self.states.get(fp) not in ("finished", "quarantined")
        ]


@dataclass
class JournalReplay:
    """Everything one :meth:`BatchJournal.replay` pass recovered."""

    path: Path
    batches: List[ReplayedBatch] = field(default_factory=list)
    #: Lines that did not parse (torn tail of a crashed append).
    corrupt_lines: int = 0

    @property
    def last(self) -> Optional[ReplayedBatch]:
        """The most recent batch segment, or None for an empty journal."""
        return self.batches[-1] if self.batches else None


class BatchJournal:
    """Append-only JSONL writer (and reader) for one journal file.

    Appends open/close the file per record: slower than a held handle,
    but immune to handle inheritance across pool forks and guaranteed
    flushed when the append returns — the property the crash-recovery
    contract rests on.  Record rates are per-spec, not per-operation, so
    the cost is noise.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    # -- writing -------------------------------------------------------------

    def append(self, record: Mapping[str, object]) -> None:
        """Append one record as a JSON line, flushed before returning."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(dict(record), sort_keys=True, default=str)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def begin(
        self,
        batch: str,
        order: List[str],
        spec_keys: Mapping[str, Mapping[str, object]],
        jobs: int,
    ) -> None:
        """Open a batch segment, recording enough to rebuild the batch.

        A crash can leave the file ending in a torn line; the segment
        starts on a fresh one, so replay drops only the torn record.
        """
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
        """Reconstruct every batch segment from a journal file.

        Never raises on content: missing files replay empty, torn or
        foreign lines are counted in ``corrupt_lines`` and skipped.
        """
        path = Path(path)
        replay = JournalReplay(path=path)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return replay
        current: Optional[ReplayedBatch] = None
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                replay.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                replay.corrupt_lines += 1
                continue
            kind = record.get("t")
            if kind == "batch_begin":
                if record.get("schema") != JOURNAL_SCHEMA:
                    current = None  # foreign segment: skip its records
                    replay.corrupt_lines += 1
                    continue
                current = ReplayedBatch(
                    batch=str(record.get("batch", "")),
                    order=[str(fp) for fp in record.get("order", [])],
                    spec_keys={
                        str(fp): key
                        for fp, key in dict(record.get("specs", {})).items()
                    },
                )
                replay.batches.append(current)
                continue
            if current is None:
                continue
            if kind == "batch_end":
                current.ended = True
                sha = record.get("results_sha256")
                current.results_sha256 = str(sha) if sha else None
            elif kind == "aborted":
                current.aborted = True
            elif kind in ("submitted", "finished", "quarantined"):
                fp = str(record.get("fp", ""))
                current.states[fp] = str(kind)
            elif kind == "failed":
                fp = str(record.get("fp", ""))
                current.states[fp] = "failed"
                current.failures[fp] = current.failures.get(fp, 0) + 1
            # Unknown kinds (retry, pool_recycle, …) inform humans, not
            # replay state — ignore them here.
        return replay


def journal_path_for(cache_root: Union[str, Path]) -> Path:
    """Where the journal for a cache directory lives: beside it.

    The journal must not live *inside* the cache root — the scanner
    would classify it as foreign and ``cache gc --foreign`` could eat
    the recovery log.
    """
    root = Path(cache_root)
    return root.with_name(root.name + ".journal.jsonl")
