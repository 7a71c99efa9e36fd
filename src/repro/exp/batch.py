"""The batch orchestrator: specs in, outcomes out, nothing recomputed.

:func:`run_batch` is the one place sweeps execute.  It deduplicates the
spec list by fingerprint, serves whatever the
:class:`~repro.exp.cache.ResultCache` already holds, fans the remainder
out through a :class:`~repro.exp.supervise.SupervisedRunner`, writes
fresh results back to the cache as they land (so an interrupted sweep
resumes where it stopped), and accounts for all of it in one place: the
batch's :class:`~repro.exp.journal.BatchJournal`.  Every lifecycle step
is a journal record, and the :class:`BatchResult` counters, its
quarantine reasons and the ``batch_*`` counters/gauges it publishes to a
:class:`~repro.obs.metrics.MetricsRegistry` are read from the journal's
fold of those records — the same fold a replay of the file computes.

Fault tolerance is layered on without changing the happy path:

* a :class:`~repro.exp.supervise.SupervisorPolicy` bounds worker
  failures (timeout, retry with deterministic backoff, quarantine,
  pool recycle, serial fallback) — ``policy=None`` is the strict
  contract where the first failure raises;
* a journal with a file makes the batch itself crash-safe —
  :func:`resume_batch` rebuilds the spec list from the journal after a
  ``kill -9`` and re-runs it against the cache, which serves everything
  that completed before the crash, with every spec's spent attempts and
  quarantine reason carried into the new segment;
* byte-identity between an interrupted-then-resumed batch and an
  uninterrupted one is asserted over :meth:`BatchResult.results_json`
  — the canonical results document, which deliberately excludes
  host-time quantities (``wall_s``) and provenance counters
  (``cache_hits``), both of which *must* differ across a resume.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError, SimulationError
from repro.exp.cache import ResultCache
from repro.exp.journal import BatchJournal, ReplayedBatch, SuperviseStats
from repro.exp.spec import Outcome, RunSpec
from repro.exp.supervise import SupervisedRunner, SupervisorPolicy
from repro.obs.metrics import MetricsRegistry

#: Schema tag on the canonical results document (see
#: :meth:`BatchResult.results_document`).
RESULTS_SCHEMA = "repro-exp-results/v1"


@dataclass(frozen=True)
class SpecOutcome:
    """One spec's batched result and where it came from."""

    spec: RunSpec
    #: The outcome, or ``None`` when the spec was quarantined.
    outcome: Optional[Outcome]
    #: Whether the outcome was served from the result cache.
    cached: bool
    #: Why the spec has no outcome (quarantine reason), else ``None``.
    error: Optional[str] = None

    @property
    def quarantined(self) -> bool:
        """Whether this spec was abandoned by the supervision layer."""
        return self.outcome is None


def batch_fingerprint(order: Sequence[str]) -> str:
    """Content address of a batch: a hash over its ordered spec list."""
    joined = "\n".join(order)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass
class BatchResult:
    """Everything one :func:`run_batch` call produced."""

    #: Per-input-spec outcomes, aligned with the submitted list
    #: (duplicates share one execution but each gets its row).
    rows: List[SpecOutcome]
    #: Unique specs submitted (after fingerprint deduplication).
    unique: int
    #: Host wall-clock for the whole batch, seconds.
    wall_s: float
    #: Worker processes requested (1 = serial, in-process).
    jobs: int
    #: Content address of the batch (hash over the ordered spec list).
    batch: str
    #: The batch's journal segment, folded: every count below.
    log: ReplayedBatch
    #: Harness-chaos actions that fired, when a chaos plan was active.
    chaos_fired: Optional[Dict[str, int]] = None

    @property
    def executed(self) -> int:
        """Unique specs actually simulated this invocation."""
        return self.log.stats.executed

    @property
    def cache_hits(self) -> int:
        """Unique specs served from the result cache."""
        return len(self.log.cached)

    @cached_property
    def quarantined(self) -> Dict[str, str]:
        """Fingerprint → reason for specs the supervisor quarantined."""
        return self.log.quarantined

    @property
    def supervision(self) -> SuperviseStats:
        """What the supervision layer did (retries, recycles, fallbacks)."""
        return self.log.stats

    @property
    def resumed(self) -> bool:
        """Whether this batch continued a journal's earlier segment."""
        return self.log.resumed

    @property
    def outcomes(self) -> List[Optional[Outcome]]:
        """Just the outcomes, aligned with the submitted spec list."""
        return [row.outcome for row in self.rows]

    @property
    def cache_ratio(self) -> float:
        """Fraction of unique specs served from cache (1.0 when empty)."""
        if self.unique == 0:
            return 1.0
        return self.cache_hits / self.unique

    @property
    def lost(self) -> List[str]:
        """Unique fingerprints with neither an outcome nor a quarantine.

        The supervision contract is that this is always empty; the
        chaos benches and CI assert it.
        """
        served: Dict[str, bool] = {}
        for row in self.rows:
            fp = row.spec.fingerprint()
            served[fp] = served.get(fp, False) or row.outcome is not None
        return [
            fp for fp, has_outcome in served.items()
            if not has_outcome and fp not in self.quarantined
        ]

    def results_document(self) -> Dict[str, object]:
        """The canonical, host-time-free view of what the batch computed.

        Maps each unique fingerprint to its outcome (as a plain dict) or
        to a quarantine marker.  Excludes ``wall_s``, ``cache_hits``,
        and every other quantity that legitimately differs between an
        uninterrupted run and a crash-resumed one — this document (and
        its hash) is the byte-identity contract.
        """
        results: Dict[str, object] = {}
        for row in self.rows:
            fp = row.spec.fingerprint()
            if fp in results:
                continue
            if row.outcome is not None:
                results[fp] = json.loads(row.outcome.to_json())
            else:
                results[fp] = {
                    "quarantined": True,
                    "reason": self.quarantined.get(fp, row.error or ""),
                }
        return {
            "schema": RESULTS_SCHEMA,
            "batch": self.batch,
            "results": results,
        }

    @cached_property
    def _results_json(self) -> str:
        return json.dumps(
            self.results_document(), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def results_json(self) -> str:
        """Canonical JSON encoding of :meth:`results_document`.

        Encoded once per batch: the journal's ``batch_end`` record, the
        CLI summary and ``--results`` all read the same string.
        """
        return self._results_json

    @cached_property
    def results_sha256(self) -> str:
        """Hash of the canonical results document (the identity check)."""
        return hashlib.sha256(
            self.results_json().encode("utf-8")
        ).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """Deterministic summary view (the CLI's ``--json`` record)."""
        summary: Dict[str, object] = {
            "specs": len(self.rows),
            "unique": self.unique,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_ratio": round(self.cache_ratio, 4),
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 3),
            "quarantined": len(self.quarantined),
            "lost_specs": len(self.lost),
            "retries": self.supervision.retries,
            "timeouts": self.supervision.timeouts,
            "pool_recycles": self.supervision.pool_recycles,
            "serial_fallbacks": self.supervision.serial_fallbacks,
            "resumed": self.resumed,
            "results_sha256": self.results_sha256,
        }
        if self.chaos_fired is not None:
            summary["chaos_fired"] = dict(self.chaos_fired)
        return summary


def missing_fingerprints(result: BatchResult) -> List[str]:
    """Unique fingerprints *not* served from the cache, sorted.

    ``--require-cache-ratio`` diagnostics: these are the specs a
    cache-only consumer (the report pipeline) would have to simulate.
    """
    missing: Dict[str, None] = {}
    for row in result.rows:
        if not row.cached:
            missing.setdefault(row.spec.fingerprint())
    return sorted(missing)


def require_cache_ratio(result: BatchResult, required: float) -> None:
    """Raise (with actionable diagnostics) unless the cache served enough.

    The error names the achieved ratio and lists the missing
    fingerprints — a bare "ratio not met" tells an operator nothing
    about *which* specs to re-run.
    """
    if result.cache_ratio >= required:
        return
    missing = missing_fingerprints(result)
    shown = ", ".join(fp[:12] for fp in missing[:8])
    more = "" if len(missing) <= 8 else f", … +{len(missing) - 8} more"
    raise SimulationError(
        f"cache ratio {result.cache_ratio:.4f} below required "
        f"{required:.4f}: {len(missing)} of {result.unique} unique "
        f"spec(s) missing from cache ({shown}{more})"
    )


def run_batch(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
    policy: Optional[SupervisorPolicy] = None,
    journal: Optional[BatchJournal] = None,
) -> BatchResult:
    """Execute *specs* with deduplication, caching, and fan-out.

    Serial execution (``jobs=1``) runs in-process on exactly the path
    :func:`~repro.sim.harness.run_once` takes, so its results are
    bit-identical to calling it directly; parallel execution is value-identical (the
    simulations are deterministic and marshalled as plain dicts).

    Only fully declarative specs are cached — a spec that cannot be
    rebuilt from registries alone has no trustworthy identity.

    ``policy=None`` is the strict contract (one attempt, first failure
    raises).  A resilient policy adds retry, timeout,
    quarantine, and pool-recycle behaviour; a :class:`BatchJournal` with
    a file additionally makes the batch crash-safe (see
    :func:`resume_batch`); without one the batch keeps its journal in
    memory.  A clean ``KeyboardInterrupt`` closes the journal with an
    ``aborted`` record before propagating; a hard kill leaves no marker —
    replay treats both as resumable.
    """
    started = time.perf_counter()
    total = len(specs)
    effective = policy if policy is not None else SupervisorPolicy.strict()
    chaos = effective.chaos
    journal = journal if journal is not None else BatchJournal()

    # Deduplicate, preserving first-seen order.
    order: List[str] = []
    unique: Dict[str, RunSpec] = {}
    for spec in specs:
        fp = spec.fingerprint()
        order.append(fp)
        if fp not in unique:
            unique[fp] = spec

    batch_fp = batch_fingerprint(order)
    log = journal.begin(
        batch_fp, order, {fp: unique[fp].key() for fp in unique}, jobs
    )

    done = 0
    outcomes: Dict[str, Outcome] = {}

    def _announce(spec: RunSpec, cached: bool) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            source = "cached" if cached else f"ran ({jobs} jobs)"
            progress(f"[{done}/{len(unique)}] {spec.label}: {source}")

    # Phase 1: serve from the cache.
    to_run: List[RunSpec] = []
    for fp in unique:
        spec = unique[fp]
        hit = None
        if cache is not None and spec.is_declarative():
            hit = cache.get(spec)
        if hit is not None:
            outcomes[fp] = hit
            journal.spec_event("finished", fp, cached=True)
            _announce(spec, cached=True)
        else:
            to_run.append(spec)

    # Phase 2: simulate the remainder, filling the cache as results land
    # (the runner appends each ``finished`` record after this callback)
    # so an interrupted sweep resumes from what already completed.  The
    # cache write happens here in the orchestrator — never in a worker —
    # so a killed or timed-out worker leaves no side effects and a spec
    # can never be half-cached or double-cached.
    def _on_result(spec: RunSpec, outcome: Outcome) -> None:
        fp = spec.fingerprint()
        if cache is not None and spec.is_declarative():
            entry = cache.put(spec, outcome)
            if chaos is not None and chaos.corrupts_entry(fp):
                # Chaos damages the durable copy only; this run already
                # holds the outcome in memory.  The corrupted entry must
                # read back as a miss — that is the cache's contract —
                # so a resume simply re-simulates this one spec.
                chaos.corrupt_file(Path(entry))
                journal.spec_event("cache_corrupted", fp)
        _announce(spec, cached=False)

    try:
        if to_run:
            fresh, _, _ = SupervisedRunner(jobs, effective, journal).run(
                [(spec.fingerprint(), spec) for spec in to_run],
                on_result=_on_result,
            )
            outcomes.update(fresh)
    except KeyboardInterrupt:
        journal.aborted("KeyboardInterrupt")
        raise

    wall_s = time.perf_counter() - started
    quarantined = log.quarantined
    result = BatchResult(
        rows=[
            SpecOutcome(
                spec=unique[fp],
                outcome=outcomes.get(fp),
                cached=fp in log.cached,
                error=quarantined.get(fp),
            )
            for fp in order
        ],
        unique=len(unique),
        wall_s=wall_s,
        jobs=jobs,
        batch=batch_fp,
        log=log,
        chaos_fired=dict(chaos.fired) if chaos is not None else None,
    )

    if registry is not None:
        stats = log.stats
        registry.counter("batch_specs").inc(total)
        registry.counter("batch_unique_specs").inc(result.unique)
        registry.counter("batch_executed").inc(result.executed)
        registry.counter("batch_cache_hits").inc(result.cache_hits)
        registry.counter("batch_retries").inc(stats.retries)
        registry.counter("batch_quarantined").inc(stats.quarantined)
        registry.counter("batch_pool_recycles").inc(stats.pool_recycles)
        registry.gauge("batch_cache_ratio").set(result.cache_ratio)
        registry.gauge("batch_jobs").set(float(jobs))
        registry.gauge("batch_wall_s").set(wall_s)
    journal.end(result.as_dict())
    return result


def resume_batch(
    journal_path: Union[str, Path],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[str], None]] = None,
    policy: Optional[SupervisorPolicy] = None,
) -> BatchResult:
    """Re-run the journal's most recent batch, skipping finished work.

    Rebuilds the exact spec list (duplicates and order included) from
    the last ``batch_begin`` record and runs it against *cache* — every
    spec that completed before the crash is served from it, so only the
    lost in-flight work re-executes.  The journal is reopened with the
    file's fold, so the fresh segment it appends starts from each spec's
    recorded attempts and quarantine error: a poison spec stays
    quarantined, for the same reason, across any number of resumes.
    """
    journal = BatchJournal.reopen(journal_path)
    segment = journal.state.last
    if segment is None:
        raise ConfigurationError(
            f"nothing to resume: no batch recorded in {journal_path}"
        )
    if not segment.spec_keys:
        raise ConfigurationError(
            f"journal {journal_path} has no spec keys; it predates the "
            f"resume-capable format"
        )
    try:
        specs = [
            RunSpec.from_key(segment.spec_keys[fp]) for fp in segment.order
        ]
    except KeyError as error:
        raise ConfigurationError(
            f"journal {journal_path} is missing the spec key for "
            f"fingerprint {error}"
        ) from None
    return run_batch(
        specs,
        jobs=jobs,
        cache=cache,
        registry=registry,
        progress=progress,
        policy=policy if policy is not None else SupervisorPolicy(),
        journal=journal,
    )
