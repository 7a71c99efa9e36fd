"""Static analysis, model checking and runtime observers for the
coherence state machine, all runnable from the CLI and CI.  The package
has a half that parses source and a half that does not; neither imports
the other.

**Static** — reads the package's source, runs none of it:

* :mod:`repro.check.lint` — ``repro-numa lint`` and the static layer of
  ``repro-numa races``.  Each module is parsed once into a
  ``ModuleIndex``; the nine rules (RN001-RN008 and RN010, listed in
  that module's docstring) are the rows of one table, ``RULES``, with
  per-rule suppression comments and stable exit codes for CI, and the
  guard inference reads the same index.
* :mod:`repro.check.guards` — the guard vocabulary the static pass
  classifies mutation sites with (shared fields, guard kinds,
  ``GuardModel``); it parses nothing itself.

**Protocol** — the reference the live tables are checked against:

* :mod:`repro.check.modelcheck` — ``repro-numa modelcheck``: the
  paper's Tables 1-2 as printed (:mod:`repro.analysis.paper`, the one
  transcription outside :mod:`repro.core.transitions`) cross-checked
  cell by cell against the live encoding, plus an exhaustive
  reachability exploration of the abstract protocol state space that
  re-validates the directory invariants on every reachable
  configuration and flags dead table cells.

**Dynamic** — observers attached to a running simulation:

* :mod:`repro.check.sanitizer` — an opt-in (``REPRO_SANITIZE=1``)
  event-bus observer that re-validates directory invariants,
  move-count monotonicity and pin-stays-pinned after every protocol
  event, raising a structured :class:`~repro.errors.ProtocolViolation`
  carrying the offending event trail.
* :mod:`repro.check.races` — the dynamic layer of ``repro-numa
  races``: an Eraser-style lockset plus vector-clock happens-before
  observer that rides the event bus and the TLB/MMU observer hooks,
  flags candidate races with full event trails, and cross-checks each
  candidate against the model checker's reachability analysis
  (:func:`~repro.check.modelcheck.stale_tlb_reachable`).
  Seeded synthetic races (:mod:`repro.check.fixtures`) prove the wiring
  end to end on every run.
"""

from repro.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fixtures": (
        "run_missed_shootdown_fixture",
        "run_unguarded_write_fixture",
    ),
    "guards": ("GuardModel", "MutationSite"),
    "lint": (
        "ALL_RULES",
        "DEFAULT_RULES",
        "LintReport",
        "RACE_RULES",
        "RULES",
        "Violation",
        "infer_guards",
        "lint_paths",
        "lint_races",
        "lint_source",
    ),
    "modelcheck": (
        "ModelCheckReport",
        "legal_transition_pairs",
        "run_model_check",
        "stale_tlb_reachable",
    ),
    "races": (
        "RaceCheckReport",
        "RaceDetector",
        "RaceReport",
        "attach_detector",
        "run_race_check",
    ),
    "sanitizer": (
        "ProtocolSanitizer",
        "attach_sanitizer",
        "maybe_attach_sanitizer",
        "sanitizer_enabled",
    ),
})
