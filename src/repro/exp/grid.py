"""Spec-grid expanders: the paper's evaluation matrix as data.

The paper's whole evaluation is a parameter sweep — 8 applications ×
{Tnuma, Tglobal, Tlocal} for Tables 3–4, a move-threshold ablation for
Section 3.2, seed fans for the chaos harness.  The helpers here expand
those sweeps into flat lists of :class:`~repro.exp.spec.RunSpec` so one
orchestrator (:func:`repro.exp.batch.run_batch`) can execute any of
them — serially, in parallel, or straight from the result cache.

Everything built on the three-run methodology of Section 3.1 is one
shape, :class:`PlacementGroup` (an application's entrants plus the
Tglobal/Tlocal baselines they share), made by one builder; Table 3, the
policy tournament and the threshold sweep differ only in the entrant
axis they declare.

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

from repro.core.policies.registry import POLICY_ENTRIES, parse_policy_arg
from repro.exp.spec import Pairs, RunSpec
from repro.registry import Registry
from repro.workloads import TABLE_3_WORKLOADS


def _canonical(apps: Optional[Iterable[str]]) -> Iterator[str]:
    """Registry spellings for *apps* (default: all of Table 3)."""
    return map(
        TABLE_3_WORKLOADS.canonical,
        TABLE_3_WORKLOADS if apps is None else apps,
    )


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


def policy_label(spec: RunSpec) -> str:
    """Stable display label for a tournament entrant."""
    if not spec.policy_params:
        return spec.policy
    rendered = ",".join(f"{k}={v}" for k, v in spec.policy_params)
    return f"{spec.policy}({rendered})"


@dataclass(frozen=True)
class PlacementGroup:
    """The paper's three-run methodology for one application, as specs.

    Every entrant runs the same workload on the same machine; the
    shared Tglobal/Tlocal baselines let
    :func:`~repro.analysis.report.join_evaluation` derive α/β/γ per
    entrant (Section 3.1).  Table 3 is the one-entrant case, a policy
    tournament has one entrant per policy, and a threshold sweep one per
    threshold (γ only, so it carries no Tglobal).
    """

    application: str
    #: entrant label → the Tnuma-style spec.
    entrants: Dict[object, RunSpec]
    #: The shared all-global baseline (α/β's denominator material).
    tglobal: Optional[RunSpec]
    #: The shared uniprocessor all-local baseline (γ's denominator).
    tlocal: RunSpec

    @property
    def tnuma(self) -> RunSpec:
        """The entrant of a one-entrant group."""
        (spec,) = self.entrants.values()
        return spec

    @property
    def specs(self) -> List[RunSpec]:
        """All runs: entrants first, then Tglobal, then Tlocal."""
        specs = list(self.entrants.values())
        if self.tglobal is not None:
            specs.append(self.tglobal)
        return [*specs, self.tlocal]


def _groups(
    apps: Optional[Iterable[str]],
    entrants: Iterable[Tuple[str, Pairs, int]],
    *,
    n_processors: int,
    quick: bool,
    check_invariants: bool,
    workload_params: Pairs = (),
    label: Callable[[RunSpec], object] = policy_label,
    tglobal: bool = True,
) -> List[PlacementGroup]:
    """Applications × the entrant axis, grouped by application.

    *entrants* declares the axis as (policy, params, threshold) points
    and *label* keys each application's entrants.  Application and
    policy names are folded to their registry spelling here, so an alias
    can neither mint a second fingerprint for the same simulation nor
    miss a lookup by label.  The two baselines are built here and
    nowhere else: ``Tlocal`` runs one thread on a one-processor machine
    under the always-LOCAL policy, exactly as :func:`~repro.sim.harness.
    measure_placement` does (``tests/exp/test_shims.py`` pins that
    function to these three specs byte for byte).
    """
    axis = [
        (POLICY_ENTRIES.canonical(policy), params, threshold)
        for policy, params, threshold in entrants
    ]
    groups = []
    for name in _canonical(apps):
        run = dict(
            workload=name,
            workload_params=workload_params,
            quick=quick,
            check_invariants=check_invariants,
        )
        on_machine = dict(run, n_processors=n_processors)
        specs = [
            RunSpec(
                policy=policy,
                policy_params=params,
                threshold=threshold,
                **on_machine,
            )
            for policy, params, threshold in axis
        ]
        groups.append(
            PlacementGroup(
                application=name,
                entrants={label(spec): spec for spec in specs},
                tglobal=(
                    RunSpec(policy="all-global", **on_machine)
                    if tglobal
                    else None
                ),
                tlocal=RunSpec(
                    policy="all-local", n_processors=1, n_threads=1, **run
                ),
            )
        )
    return groups


def policy_tournament(
    apps: Optional[Iterable[str]] = None,
    policies: Sequence[PolicyChoice] = DEFAULT_TOURNAMENT_POLICIES,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    check_invariants: bool = False,
    workload_params: Pairs = (),
) -> List[PlacementGroup]:
    """The generalized Table 3 grid: every application × every policy.

    The baselines are shared across entrants (and across grids — the
    specs are identical, so the cache collapses them).
    ``workload_params`` apply to every application in the call, so
    parameterized tournaments are usually single-application.
    """
    return _groups(
        apps,
        ((name, params, threshold) for name, params in policies),
        n_processors=n_processors,
        quick=quick,
        check_invariants=check_invariants,
        workload_params=workload_params,
    )


def table3_grid(
    apps: Optional[Iterable[str]] = None,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    check_invariants: bool = False,
) -> List[PlacementGroup]:
    """The full Tables 3–4 matrix: every application × three runs.

    This is the tournament with the paper's policy as its only entrant.
    ``check_invariants`` defaults off purely for speed (the test suite
    runs the same workloads with it on); the flag is in the fingerprint.
    """
    return _groups(
        apps,
        [("move-threshold", (), threshold)],
        n_processors=n_processors,
        quick=quick,
        check_invariants=check_invariants,
    )


def placement_specs(
    application: str,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    check_invariants: bool = True,
    workload_params: Pairs = (),
) -> PlacementGroup:
    """Specs for Tnuma/Tglobal/Tlocal of one application (Section 3.1)."""
    (group,) = _groups(
        [application],
        [("move-threshold", (), threshold)],
        n_processors=n_processors,
        quick=quick,
        check_invariants=check_invariants,
        workload_params=workload_params,
    )
    return group


def threshold_grid(
    apps: Sequence[str],
    thresholds: Sequence[int],
    n_processors: int = 7,
    quick: bool = False,
    check_invariants: bool = True,
) -> List[PlacementGroup]:
    """The Section 3.2 ablation: Tnuma per threshold, one Tlocal per app.

    Entrants are keyed by threshold.  γ needs no Tglobal, so the groups
    carry none.
    """
    return _groups(
        apps,
        (("move-threshold", (), threshold) for threshold in thresholds),
        n_processors=n_processors,
        quick=quick,
        check_invariants=check_invariants,
        label=lambda spec: spec.threshold,
        tglobal=False,
    )


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


def _table3_groups(args: Any) -> List[PlacementGroup]:
    return table3_grid(
        apps=args.apps,
        n_processors=args.processors,
        threshold=args.threshold,
        quick=args.quick,
    )


def sweep_groups(args: Any) -> List[PlacementGroup]:
    """The ``sweep`` grid still grouped, for the command that prints it."""
    return threshold_grid(
        args.apps or ["Primes3", "IMatMult"],
        args.thresholds or [0, 1, 2, 4, 8, 16],
        n_processors=args.processors,
        quick=args.quick,
    )


def _chaos_fans(args: Any) -> List[List[RunSpec]]:
    return [
        seed_fan(
            name,
            args.profile,
            args.seeds or [0, 1, 2],
            n_processors=args.processors,
            threshold=args.threshold,
            quick=args.quick,
        )
        for name in (args.apps or ["ParMult"])
    ]


def _tournament_groups(args: Any) -> List[PlacementGroup]:
    entrants: Sequence[PolicyChoice] = DEFAULT_TOURNAMENT_POLICIES
    if args.policies:
        entrants = [
            (name, tuple(sorted(params.items())))
            for name, params in map(parse_policy_arg, args.policies)
        ]
    return policy_tournament(
        apps=args.apps or ["Gfetch", "ParMult"],
        policies=entrants,
        n_processors=args.processors,
        threshold=args.threshold,
        quick=args.quick,
    )


def _flat(groups: Callable[[Any], Iterable[object]]):
    return lambda args: flatten(groups(args))


#: The spec grids ``repro-numa batch --grid`` can run, in menu order.
GRIDS: Registry[Callable[[Any], List[RunSpec]]] = Registry("grid", {
    "table3": _flat(_table3_groups),
    "sweep": _flat(sweep_groups),
    "chaos": _flat(_chaos_fans),
    "tournament": _flat(_tournament_groups),
})
