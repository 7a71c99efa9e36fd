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

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exp.spec import Pairs, RunSpec
from repro.workloads import TABLE_3_WORKLOADS


def registry_names(apps: Optional[Iterable[str]] = None) -> List[str]:
    """Canonical registry spellings for *apps* (default: all of Table 3).

    Lookup is case-insensitive; unknown names raise through
    :func:`~repro.exp.spec.resolve_workload` with the full menu.
    """
    if apps is None:
        return list(TABLE_3_WORKLOADS)
    canonical = []
    for name in apps:
        match = next(
            (known for known in TABLE_3_WORKLOADS
             if known.lower() == name.lower()),
            None,
        )
        if match is None:
            # Delegate for the standard error message.
            from repro.exp.spec import resolve_workload

            resolve_workload(name)
        canonical.append(match)
    return canonical


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
        for name in registry_names(apps)
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
    for name in registry_names(apps):
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
    for name in registry_names(apps):
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
    """A chaos seed fan: one spec per RNG seed, same fault profile."""
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
        for seed in registry_seeds(seeds)
    ]


def registry_seeds(seeds: Sequence[int]) -> List[int]:
    """Normalize a seed list (deduplicated, order-preserving)."""
    seen = set()
    ordered = []
    for seed in seeds:
        if seed not in seen:
            seen.add(seed)
            ordered.append(int(seed))
    return ordered


class Matrix:
    """A cartesian spec expander for ad-hoc sweeps.

    Axes are :class:`~repro.exp.spec.RunSpec` field names mapped to the
    values to sweep; :meth:`expand` yields one spec per point of the
    cross product, in deterministic (row-major, insertion-ordered)
    order::

        Matrix(workload=["ParMult", "FFT"], threshold=[0, 4, 16],
               quick=True).expand()
        # 6 specs

    Scalar keyword arguments are held fixed across the whole grid.
    """

    def __init__(self, **axes: object) -> None:
        self._axes: Dict[str, List[object]] = {}
        self._fixed: Dict[str, object] = {}
        for name, value in axes.items():
            if isinstance(value, (list, tuple, range)):
                self._axes[name] = list(value)
            else:
                self._fixed[name] = value

    def expand(self) -> List[RunSpec]:
        """All points of the grid, as specs."""
        if not self._axes:
            return [RunSpec(**self._fixed)]
        names = list(self._axes)
        specs = []
        for point in itertools.product(*(self._axes[n] for n in names)):
            params: Dict[str, object] = dict(self._fixed)
            params.update(zip(names, point))
            specs.append(RunSpec(**params))
        return specs

    def __len__(self) -> int:
        total = 1
        for values in self._axes.values():
            total *= len(values)
        return total


def flatten(groups: Iterable[object]) -> List[RunSpec]:
    """Flatten grid helper outputs (PlacementSpecs/ThresholdSweep/specs)."""
    flat: List[RunSpec] = []
    for group in groups:
        if isinstance(group, RunSpec):
            flat.append(group)
        elif isinstance(group, PlacementSpecs):
            flat.extend(group.specs)
        elif isinstance(group, ThresholdSweep):
            flat.extend(group.specs)
        elif isinstance(group, PolicyTournament):
            flat.extend(group.specs)
        else:
            flat.extend(group)  # an iterable of specs
    return flat
