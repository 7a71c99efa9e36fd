"""Experiment orchestration: declarative specs, sweeps, caching, fan-out.

The paper's evaluation is a parameter-sweep matrix; this package turns
it into data.  :class:`~repro.exp.spec.RunSpec` captures one simulation
declaratively, :mod:`repro.exp.grid` expands sweeps into spec lists,
:func:`~repro.exp.batch.run_batch` executes them with fingerprint
deduplication, an on-disk :class:`~repro.exp.cache.ResultCache`, and
:class:`~repro.exp.supervise.SupervisedRunner` — one retrying loop over
a process pool or an in-process executor — and accounts for every step
in a :class:`~repro.exp.journal.BatchJournal`, whose fold of its own
records is the batch's state.

Quick start::

    from repro.exp import ResultCache, flatten, run_batch, table3_grid

    grid = flatten(table3_grid(quick=True))
    batch = run_batch(grid, jobs=4, cache=ResultCache())
    for row in batch.rows:
        print(row.spec.label, row.cached, row.outcome.result.summary())
"""

from repro.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batch": (
        "BatchResult",
        "SpecOutcome",
        "batch_fingerprint",
        "missing_fingerprints",
        "require_cache_ratio",
        "resume_batch",
        "run_batch",
    ),
    "cache": (
        "CACHE_SCHEMA",
        "DEFAULT_CACHE_DIR",
        "SKIP_REASONS",
        "CacheEntry",
        "CacheScan",
        "ResultCache",
        "SkippedFile",
    ),
    "grid": (
        "DEFAULT_TOURNAMENT_POLICIES",
        "GRIDS",
        "PlacementGroup",
        "flatten",
        "placement_specs",
        "policy_label",
        "policy_tournament",
        "seed_fan",
        "table3_grid",
        "threshold_grid",
    ),
    "journal": (
        "JOURNAL_SCHEMA",
        "BatchJournal",
        "JournalReplay",
        "ReplayedBatch",
        "SuperviseStats",
        "journal_path_for",
    ),
    "spec": (
        "SPEC_SCHEMA",
        "Outcome",
        "RunSpec",
        "resolve_policy",
        "resolve_workload",
    ),
    "supervise": ("SupervisedRunner", "SupervisorPolicy"),
})
