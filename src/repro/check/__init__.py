"""Static analysis and model checking for the coherence state machine.

Three layers of correctness tooling, all runnable from the CLI and CI:

* :mod:`repro.check.lint` — ``repro-numa lint``: custom AST rules over
  the source tree (no wall-clock time in simulated-time code, no
  ``PageState`` assignment outside the transition funnel, no bare
  ``except:``, no mutable default arguments, transitions must be
  announced on the event bus, no unseeded randomness), with per-rule
  suppression comments and stable exit codes for CI.
* :mod:`repro.check.modelcheck` — ``repro-numa modelcheck``: the
  paper's Tables 1-2, independently transcribed, cross-checked cell by
  cell against the live :mod:`repro.core.transitions` encoding, plus an
  exhaustive reachability exploration of the abstract protocol state
  space that re-validates the directory invariants on every reachable
  configuration and flags dead table cells.
* :mod:`repro.check.sanitizer` — an opt-in (``REPRO_SANITIZE=1``)
  event-bus observer that re-validates directory invariants,
  move-count monotonicity, pin-stays-pinned, and spin-lock ordering
  (:mod:`repro.check.lockorder`) after every protocol event, raising a
  structured :class:`~repro.errors.ProtocolViolation` carrying the
  offending event trail.
* :mod:`repro.check.races` — ``repro-numa races``: a two-layer race
  detector for the coherence protocol.  The static layer infers the
  guard discipline per shared field (:mod:`repro.check.guards`) and
  lints for mutations outside the inferred guard, unbalanced lock
  paths, MMU mutations without a paired shootdown, and bus emission
  under a spin lock (RN008-RN011).  The dynamic layer is an
  Eraser-style lockset plus vector-clock happens-before observer that
  rides the event bus and the spinlock/TLB/MMU observer hooks, flags
  candidate races with full event trails, and cross-checks each
  candidate against the model checker's reachability analysis
  (:func:`~repro.check.modelcheck.stale_tlb_reachable`).  Seeded
  synthetic races (:mod:`repro.check.fixtures`) prove the wiring end
  to end on every run.
"""

from repro.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fixtures": (
        "run_missed_shootdown_fixture",
        "run_unguarded_write_fixture",
    ),
    "guards": ("GuardModel", "MutationSite", "infer_guards"),
    "lint": (
        "DEFAULT_RULES",
        "LintReport",
        "Violation",
        "lint_paths",
        "lint_source",
    ),
    "lockorder": ("LockOrderChecker",),
    "modelcheck": (
        "ModelCheckReport",
        "legal_transition_pairs",
        "run_model_check",
        "stale_tlb_reachable",
    ),
    "races": (
        "ALL_RULES",
        "RACE_RULES",
        "RaceCheckReport",
        "RaceDetector",
        "RaceReport",
        "attach_detector",
        "detach_detector",
        "lint_races",
        "run_race_check",
    ),
    "sanitizer": (
        "ProtocolSanitizer",
        "attach_sanitizer",
        "maybe_attach_sanitizer",
        "sanitizer_enabled",
    ),
})
