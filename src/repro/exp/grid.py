"""Spec-grid expanders: the paper's evaluation matrix as data.

The paper's whole evaluation is a parameter sweep — 8 applications ×
{Tnuma, Tglobal, Tlocal} for Tables 3–4, a move-threshold ablation for
Section 3.2, seed fans for the chaos harness.  The helpers here expand
those sweeps into flat lists of :class:`~repro.exp.spec.RunSpec` so one
orchestrator (:func:`repro.exp.batch.run_batch`) can execute any of
them — serially, in parallel, or straight from the result cache.

Identical specs across grids collapse naturally: ``Tlocal`` does not
depend on the move threshold, so a threshold sweep emits one ``Tlocal``
spec per application no matter how many thresholds it covers, and the
orchestrator deduplicates whatever overlap remains by fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.policies.registry import parse_policy_arg
from repro.exp.spec import Pairs, RunSpec
from repro.registry import Registry
from repro.workloads import TABLE_3_WORKLOADS


def _canonical(apps: Optional[Iterable[str]]) -> Iterator[str]:
    """Registry spellings for *apps* (default: all of Table 3)."""
    return map(
        TABLE_3_WORKLOADS.canonical,
        TABLE_3_WORKLOADS if apps is None else apps,
    )


@dataclass(frozen=True)
class PlacementSpecs:
    """The paper's three-run methodology for one application, as specs."""

    application: str
    tnuma: RunSpec
    tglobal: RunSpec
    tlocal: RunSpec

    @property
    def specs(self) -> Tuple[RunSpec, RunSpec, RunSpec]:
        """The three runs, Tnuma first."""
        return (self.tnuma, self.tglobal, self.tlocal)


def placement_specs(
    application: str,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    check_invariants: bool = True,
    workload_params: Pairs = (),
) -> PlacementSpecs:
    """Specs for Tnuma/Tglobal/Tlocal of one application (Section 3.1).

    ``Tlocal`` runs one thread on a one-processor machine under the
    always-LOCAL policy, exactly as :func:`~repro.sim.harness.
    measure_placement` does (``tests/exp/test_shims.py`` pins the two
    byte for byte).
    """
    base = dict(
        workload=application,
        workload_params=workload_params,
        quick=quick,
        n_processors=n_processors,
        check_invariants=check_invariants,
    )
    return PlacementSpecs(
        application=application,
        tnuma=RunSpec(policy="move-threshold", threshold=threshold, **base),
        tglobal=RunSpec(policy="all-global", **base),
        tlocal=RunSpec(
            workload=application,
            workload_params=workload_params,
            quick=quick,
            policy="all-local",
            n_processors=1,
            n_threads=1,
            check_invariants=check_invariants,
        ),
    )


def table3_grid(
    apps: Optional[Iterable[str]] = None,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    check_invariants: bool = False,
) -> List[PlacementSpecs]:
    """The full Tables 3–4 matrix: every application × three runs.

    ``check_invariants`` defaults off to match
    :func:`~repro.analysis.report.run_evaluation` (purely a speed
    choice; the test suite runs the same workloads with it on).
    """
    return [
        placement_specs(
            name,
            n_processors=n_processors,
            threshold=threshold,
            quick=quick,
            check_invariants=check_invariants,
        )
        for name in _canonical(apps)
    ]


#: A tournament entrant: policy registry name plus its parameter pairs.
PolicyChoice = Tuple[str, Pairs]

#: Default tournament field: the paper's policy against the adaptive
#: family, all at their registry defaults.
DEFAULT_TOURNAMENT_POLICIES: Tuple[PolicyChoice, ...] = (
    ("move-threshold", ()),
    ("adaptive-threshold", ()),
    ("bandwidth-aware", ()),
    ("bandit", ()),
)


def policy_label(name: str, params: Pairs = ()) -> str:
    """Stable display label for a tournament entrant."""
    if not params:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in sorted(params))
    return f"{name}({rendered})"


@dataclass(frozen=True)
class PolicyTournament:
    """One application's policy tournament, as specs.

    Every entrant runs the same workload on the same machine; the
    shared Tglobal/Tlocal baselines let the report derive α/β/γ per
    policy from the paper's three-run methodology, with the
    move-threshold entrant as the comparison baseline.
    """

    application: str
    #: entrant label (:func:`policy_label`) → the Tnuma-style spec.
    entrants: Dict[str, RunSpec]
    #: The shared all-global baseline (α/β's denominator material).
    tglobal: RunSpec
    #: The shared uniprocessor all-local baseline (γ's denominator).
    tlocal: RunSpec

    @property
    def specs(self) -> List[RunSpec]:
        """All runs: entrants first, then the two baselines."""
        return [*self.entrants.values(), self.tglobal, self.tlocal]


def policy_tournament(
    apps: Optional[Iterable[str]] = None,
    policies: Sequence[PolicyChoice] = DEFAULT_TOURNAMENT_POLICIES,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    check_invariants: bool = False,
    workload_params: Pairs = (),
) -> List[PolicyTournament]:
    """The generalized Table 3 grid: every application × every policy.

    ``table3_grid`` is this tournament with the single default entrant;
    the baselines are shared across entrants (and across grids — the
    specs are identical, so the cache collapses them).
    ``workload_params`` apply to every application in the call, so
    parameterized tournaments are usually single-application.
    """
    tournaments = []
    for name in _canonical(apps):
        triple = placement_specs(
            name,
            n_processors=n_processors,
            threshold=threshold,
            quick=quick,
            check_invariants=check_invariants,
            workload_params=workload_params,
        )
        entrants: Dict[str, RunSpec] = {}
        for policy_name, params in policies:
            spec = RunSpec(
                workload=name,
                workload_params=workload_params,
                quick=quick,
                policy=policy_name,
                threshold=threshold,
                policy_params=params,
                n_processors=n_processors,
                check_invariants=check_invariants,
            )
            entrants[policy_label(policy_name, spec.policy_params)] = spec
        tournaments.append(
            PolicyTournament(
                application=name,
                entrants=entrants,
                tglobal=triple.tglobal,
                tlocal=triple.tlocal,
            )
        )
    return tournaments


@dataclass(frozen=True)
class ThresholdSweep:
    """One application's move-threshold ablation, as specs."""

    application: str
    #: threshold → the Tnuma spec at that threshold.
    tnuma: Dict[int, RunSpec]
    #: The threshold-independent Tlocal baseline (γ's denominator).
    tlocal: RunSpec

    @property
    def specs(self) -> List[RunSpec]:
        """All runs, Tlocal last."""
        return [*self.tnuma.values(), self.tlocal]


def threshold_grid(
    apps: Sequence[str],
    thresholds: Sequence[int],
    n_processors: int = 7,
    quick: bool = False,
    check_invariants: bool = True,
) -> List[ThresholdSweep]:
    """The Section 3.2 ablation: Tnuma per threshold, one Tlocal per app."""
    sweeps = []
    for name in _canonical(apps):
        per_threshold = {}
        tlocal = None
        for threshold in thresholds:
            triple = placement_specs(
                name,
                n_processors=n_processors,
                threshold=threshold,
                quick=quick,
                check_invariants=check_invariants,
            )
            per_threshold[threshold] = triple.tnuma
            tlocal = triple.tlocal
        sweeps.append(
            ThresholdSweep(application=name, tnuma=per_threshold, tlocal=tlocal)
        )
    return sweeps


def seed_fan(
    application: str,
    profile: str,
    seeds: Sequence[int],
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
) -> List[RunSpec]:
    """A chaos seed fan: one spec per distinct seed, same fault profile."""
    return [
        RunSpec(
            workload=application,
            quick=quick,
            policy="move-threshold",
            threshold=threshold,
            n_processors=n_processors,
            fault_profile=profile,
            fault_seed=seed,
        )
        for seed in dict.fromkeys(seeds)
    ]


def flatten(groups: Iterable[object]) -> List[RunSpec]:
    """Flatten grid helper outputs: specs, ``.specs`` groups, iterables."""
    flat: List[RunSpec] = []
    for group in groups:
        if isinstance(group, RunSpec):
            flat.append(group)
        else:
            flat.extend(getattr(group, "specs", group))
    return flat


# -- the batch grids ----------------------------------------------------------
#
# One entry per ``batch --grid`` choice: a function from the parsed
# command line to the flat spec list, owning its own defaults.


def _table3_specs(args: Any) -> List[RunSpec]:
    return flatten(
        table3_grid(
            apps=args.apps,
            n_processors=args.processors,
            threshold=args.threshold,
            quick=args.quick,
        )
    )


def _sweep_specs(args: Any) -> List[RunSpec]:
    return flatten(
        threshold_grid(
            args.apps or ["Primes3", "IMatMult"],
            args.thresholds or [0, 1, 2, 4, 8, 16],
            n_processors=args.processors,
            quick=args.quick,
        )
    )


def _chaos_specs(args: Any) -> List[RunSpec]:
    return flatten(
        seed_fan(
            name,
            args.profile,
            args.seeds or [0, 1, 2],
            n_processors=args.processors,
            threshold=args.threshold,
            quick=args.quick,
        )
        for name in (args.apps or ["ParMult"])
    )


def _tournament_specs(args: Any) -> List[RunSpec]:
    entrants: Sequence[PolicyChoice] = DEFAULT_TOURNAMENT_POLICIES
    if args.policies:
        entrants = [
            (name, tuple(sorted(params.items())))
            for name, params in map(parse_policy_arg, args.policies)
        ]
    return flatten(
        policy_tournament(
            apps=args.apps or ["Gfetch", "ParMult"],
            policies=entrants,
            n_processors=args.processors,
            threshold=args.threshold,
            quick=args.quick,
        )
    )


#: The spec grids ``repro-numa batch --grid`` can run, in menu order.
GRIDS: Registry[Callable[[Any], List[RunSpec]]] = Registry("grid", {
    "table3": _table3_specs,
    "sweep": _sweep_specs,
    "chaos": _chaos_specs,
    "tournament": _tournament_specs,
})
