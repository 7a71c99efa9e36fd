"""Evaluation driver and table renderers for the paper's Tables 3 and 4.

:func:`run_evaluation` performs the paper's three-run methodology for a
set of applications through the batch orchestrator;
:func:`join_evaluation` turns each entrant of a
:class:`~repro.exp.grid.PlacementGroup` plus the group's two baselines
into model parameters — Table 3's one entrant per application or a
tournament's several, from a batch that just ran or from the result
cache; the ``format_*`` functions print the same rows the paper
reports, with the published numbers alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis import model as eqs
from repro.analysis.frames import DataTable
from repro.analysis.paper import TABLE_3, TABLE_4
from repro.exp.batch import run_batch
from repro.exp.grid import PlacementGroup, flatten, table3_grid
from repro.exp.spec import Outcome, RunSpec
from repro.sim.result import PlacementMeasurement, RunResult
from repro.workloads import TABLE_4_WORKLOADS


@dataclass(frozen=True)
class EvaluationRow:
    """One entrant's measurements and derived model parameters."""

    application: str
    measurement: PlacementMeasurement
    params: eqs.ModelParameters
    #: The entrant's label within its application's placement group
    #: (``move-threshold`` on every Table 3 row).
    entrant: object

    @property
    def delta_s(self) -> Optional[float]:
        """ΔS = Snuma − Sglobal, or ``None`` when negative (paper's na)."""
        delta = (
            self.measurement.numa.system_time_s
            - self.measurement.all_global.system_time_s
        )
        return delta if delta > 0 else None

    @property
    def delta_over_t(self) -> float:
        """ΔS / Tnuma (0 when ΔS is na, matching Table 4)."""
        delta = self.delta_s
        if delta is None:
            return 0.0
        return delta / self.measurement.t_numa_s


@dataclass(frozen=True)
class Evaluation:
    """The full application-mix evaluation (inputs to Tables 3 and 4)."""

    rows: List[EvaluationRow]
    n_processors: int
    threshold: int

    def row(self, application: str) -> EvaluationRow:
        """The row for one application."""
        for row in self.rows:
            if row.application == application:
                return row
        raise KeyError(application)


@dataclass
class EvaluationJoin:
    """Placement groups joined from per-spec outcomes."""

    evaluation: Evaluation
    #: Applications with at least one solved entrant (for Table 3: whose
    #: full Tnuma/Tglobal/Tlocal triple was served).
    complete: List[str] = field(default_factory=list)
    #: Required specs the lookup could not serve.
    missing: List[RunSpec] = field(default_factory=list)
    #: Contributing spec fingerprints (sorted, full length).
    fingerprints: List[str] = field(default_factory=list)

    @property
    def required(self) -> int:
        """Unique specs the evaluation needs."""
        return len(self.fingerprints) + len(self.missing)

    @property
    def cache_ratio(self) -> float:
        """Served / required (1.0 when nothing is required)."""
        if self.required == 0:
            return 1.0
        return len(self.fingerprints) / self.required


def solve_row(
    group: PlacementGroup, label: object, results: Mapping[RunSpec, RunResult]
) -> EvaluationRow:
    """Solve the model for one entrant against its group's baselines."""
    measurement = PlacementMeasurement(
        workload=group.application,
        g_over_l=group.tlocal.resolve_workload().g_over_l,
        numa=results[group.entrants[label]],
        all_global=results[group.tglobal],
        local=results[group.tlocal],
    )
    return EvaluationRow(
        application=group.application,
        measurement=measurement,
        params=eqs.solve_model(measurement),
        entrant=label,
    )


def join_evaluation(
    groups: Sequence[PlacementGroup],
    lookup: Callable[[RunSpec], Optional[Outcome]],
    n_processors: int,
    threshold: int,
) -> EvaluationJoin:
    """Join every entrant with its group's Tglobal/Tlocal into a row.

    *lookup* maps a spec to its outcome, or ``None`` when there is none
    (an uncached or quarantined spec).  Table 3 is the one-entrant case:
    one row per application.  Every spec the lookup cannot serve is
    reported via :attr:`EvaluationJoin.missing`, and a group that yields
    no row (a baseline or every entrant absent) contributes nothing to
    ``fingerprints``, so a partially warmed cache degrades to a partial
    (still correct, still footnoted) report instead of an error.
    """
    rows: List[EvaluationRow] = []
    complete: List[str] = []
    missing: List[RunSpec] = []
    fingerprints: List[str] = []
    for group in groups:
        results: Dict[RunSpec, RunResult] = {}
        for spec in group.specs:
            outcome = lookup(spec)
            if outcome is None:
                missing.append(spec)
            else:
                results[spec] = outcome.result
        solved = [
            label
            for label, spec in group.entrants.items()
            if spec in results
        ]
        if not (
            solved and group.tglobal in results and group.tlocal in results
        ):
            continue
        rows.extend(solve_row(group, label, results) for label in solved)
        complete.append(group.application)
        fingerprints.extend(
            spec.fingerprint() for spec in group.specs if spec in results
        )
    return EvaluationJoin(
        evaluation=Evaluation(
            rows=rows, n_processors=n_processors, threshold=threshold
        ),
        complete=complete,
        missing=missing,
        fingerprints=sorted(fingerprints),
    )


def run_evaluation(
    *,
    apps: Optional[Sequence[str]] = None,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    jobs: int = 1,
    cache=None,
) -> Evaluation:
    """Measure Tnuma/Tglobal/Tlocal and solve the model for each app.

    The evaluation is the declarative :func:`~repro.exp.grid.table3_grid`
    executed by the batch orchestrator, which brings ``jobs`` worker
    processes and the on-disk result ``cache``.  ``apps`` restricts the
    grid and ``quick`` selects the scaled-down workload instances.
    """
    groups = table3_grid(
        apps=apps, n_processors=n_processors, threshold=threshold, quick=quick
    )
    batch = run_batch(flatten(groups), jobs=jobs, cache=cache)
    outcomes = {row.spec: row.outcome for row in batch.rows}
    return join_evaluation(
        groups, outcomes.get, n_processors, threshold
    ).evaluation


def _fmt(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "na"
    return f"{value:.{digits}f}"


def format_table3(evaluation: Evaluation) -> str:
    """Render Table 3: measured times and computed model parameters."""
    columns = [
        "Application", "Tglobal", "Tnuma", "Tlocal", "α", "β", "γ",
        "α(paper)", "β(paper)", "γ(paper)",
    ]
    rows = []
    for row in evaluation.rows:
        m = row.measurement
        paper = TABLE_3.get(row.application.split("-")[0])
        cells = [
            row.application,
            f"{m.t_global_s:.1f}",
            f"{m.t_numa_s:.1f}",
            f"{m.t_local_s:.1f}",
            row.params.format_alpha(),
            _fmt(row.params.beta),
            _fmt(row.params.gamma),
        ]
        if paper is None:
            cells += ["-", "-", "-"]
        else:
            cells += [_fmt(paper.alpha), _fmt(paper.beta), _fmt(paper.gamma)]
        rows.append(dict(zip(columns, cells)))
    return DataTable(rows, columns).to_text(
        "Table 3: measured user times (simulated seconds) and model "
        f"parameters ({evaluation.n_processors} processors, threshold "
        f"{evaluation.threshold})"
    )


def format_table4(evaluation: Evaluation) -> str:
    """Render Table 4: system-time overhead of NUMA management."""
    columns = [
        "Application", "Snuma", "Sglobal", "ΔS", "Tnuma", "ΔS/Tnuma",
        "ΔS/Tnuma(paper)",
    ]
    rows = []
    for row in evaluation.rows:
        if row.application not in TABLE_4_WORKLOADS:
            continue
        m = row.measurement
        paper = TABLE_4.get(row.application)
        cells = [
            row.application,
            f"{m.numa.system_time_s:.2f}",
            f"{m.all_global.system_time_s:.2f}",
            _fmt(row.delta_s, 2),
            f"{m.t_numa_s:.1f}",
            f"{row.delta_over_t * 100:.1f}%",
            f"{paper.delta_over_t * 100:.1f}%" if paper else "-",
        ]
        rows.append(dict(zip(columns, cells)))
    return DataTable(rows, columns).to_text(
        "Table 4: total system time (simulated seconds) on "
        f"{evaluation.n_processors} processors"
    )


def format_measured_alpha(evaluation: Evaluation) -> str:
    """Extra table the paper could not print: ground-truth α per app.

    The simulator observes every reference, so the model-recovered α of
    Table 3 can be validated against the directly measured fraction of
    local writable-data references.
    """
    columns = ["Application", "α(model)", "α(measured)", "moves", "pinned-ish"]
    rows = []
    for row in evaluation.rows:
        m = row.measurement.numa
        cells = [
            row.application,
            row.params.format_alpha(),
            _fmt(m.measured_alpha),
            str(m.stats.moves),
            str(m.stats.local_memory_fallbacks),
        ]
        rows.append(dict(zip(columns, cells)))
    return DataTable(rows, columns).to_text(
        "Model-recovered vs directly measured α"
    )
