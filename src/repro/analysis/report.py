"""Evaluation driver and table renderers for the paper's Tables 3 and 4.

:func:`run_evaluation` performs the paper's three-run methodology for a
set of applications through the batch orchestrator;
:func:`join_evaluation` turns the three outcomes per application into
model parameters, whether they come from a batch that just ran or from
the result cache; the ``format_*`` functions print the same rows the
paper reports, with the published numbers alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.analysis import model as eqs
from repro.analysis.paper import TABLE_3, TABLE_4
from repro.exp.batch import run_batch
from repro.exp.grid import PlacementSpecs, flatten, table3_grid
from repro.exp.spec import Outcome, RunSpec
from repro.sim.harness import PlacementMeasurement
from repro.sim.result import RunResult
from repro.workloads import TABLE_4_WORKLOADS


@dataclass(frozen=True)
class EvaluationRow:
    """One application's measurements and derived model parameters."""

    application: str
    measurement: PlacementMeasurement
    params: eqs.ModelParameters

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
    """A Tables 3–4 evaluation joined from per-spec outcomes."""

    evaluation: Evaluation
    #: Applications whose full Tnuma/Tglobal/Tlocal triple was served.
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
    application: str,
    g_over_l: float,
    numa: RunResult,
    all_global: RunResult,
    local: RunResult,
) -> EvaluationRow:
    """Solve the model for one application's three measured runs."""
    measurement = PlacementMeasurement(
        workload=application,
        g_over_l=g_over_l,
        numa=numa,
        all_global=all_global,
        local=local,
    )
    params = eqs.solve(
        measurement.t_global_s,
        measurement.t_numa_s,
        measurement.t_local_s,
        measurement.g_over_l,
    )
    return EvaluationRow(
        application=application, measurement=measurement, params=params
    )


def join_evaluation(
    groups: Sequence[PlacementSpecs],
    lookup: Callable[[RunSpec], Optional[Outcome]],
    n_processors: int,
    threshold: int,
) -> EvaluationJoin:
    """Join each application's Tnuma/Tglobal/Tlocal outcomes into a row.

    *lookup* maps a spec to its outcome, or ``None`` when there is none
    (an uncached or quarantined spec).  Applications with an incomplete
    triple are left out of the evaluation and reported via
    :attr:`EvaluationJoin.missing`, so a partially warmed cache degrades
    to a partial (still correct, still footnoted) report instead of an
    error.
    """
    rows: List[EvaluationRow] = []
    complete: List[str] = []
    missing: List[RunSpec] = []
    fingerprints: List[str] = []
    for group in groups:
        outcomes = [lookup(spec) for spec in group.specs]
        absent = [
            spec
            for spec, outcome in zip(group.specs, outcomes)
            if outcome is None
        ]
        if absent:
            missing.extend(absent)
            continue
        rows.append(
            solve_row(
                group.application,
                group.tnuma.resolve_workload().g_over_l,
                *(outcome.result for outcome in outcomes),
            )
        )
        complete.append(group.application)
        fingerprints.extend(spec.fingerprint() for spec in group.specs)
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
    check_invariants: bool = False,
    jobs: int = 1,
    cache=None,
    registry=None,
    bus=None,
    progress=None,
) -> Evaluation:
    """Measure Tnuma/Tglobal/Tlocal and solve the model for each app.

    The evaluation is the declarative :func:`~repro.exp.grid.table3_grid`
    executed by the batch orchestrator, which brings ``jobs`` worker
    processes, the on-disk result ``cache``, and ``batch_*`` telemetry
    (``registry``/``bus``/``progress`` pass straight through to
    :func:`~repro.exp.batch.run_batch`).  ``apps`` restricts the grid
    and ``quick`` selects the scaled-down workload instances.  Invariant
    checking is off by default here purely for speed; the test suite
    runs the same workloads with it on.
    """
    groups = table3_grid(
        apps=apps,
        n_processors=n_processors,
        threshold=threshold,
        quick=quick,
        check_invariants=check_invariants,
    )
    batch = run_batch(
        flatten(groups),
        jobs=jobs,
        cache=cache,
        registry=registry,
        bus=bus,
        progress=progress,
    )
    outcomes = {row.spec: row.outcome for row in batch.rows}
    return join_evaluation(
        groups, outcomes.get, n_processors, threshold
    ).evaluation


def _format_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]], title: str
) -> str:
    """Plain-text table with a title, sized to its contents."""
    materialized = [list(headers)] + [list(r) for r in rows]
    widths = [
        max(len(row[col]) for row in materialized)
        for col in range(len(headers))
    ]
    lines = [title]
    for index, row in enumerate(materialized):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "na"
    return f"{value:.{digits}f}"


def format_table3(evaluation: Evaluation, include_paper: bool = True) -> str:
    """Render Table 3: measured times and computed model parameters."""
    headers = ["Application", "Tglobal", "Tnuma", "Tlocal", "α", "β", "γ"]
    if include_paper:
        headers += ["α(paper)", "β(paper)", "γ(paper)"]
    rows = []
    for row in evaluation.rows:
        m = row.measurement
        cells = [
            row.application,
            f"{m.t_global_s:.1f}",
            f"{m.t_numa_s:.1f}",
            f"{m.t_local_s:.1f}",
            row.params.format_alpha(),
            _fmt(row.params.beta),
            _fmt(row.params.gamma),
        ]
        if include_paper:
            paper = TABLE_3.get(row.application.split("-")[0])
            if paper is None:
                cells += ["-", "-", "-"]
            else:
                cells += [
                    _fmt(paper.alpha),
                    _fmt(paper.beta),
                    _fmt(paper.gamma),
                ]
        rows.append(cells)
    return _format_table(
        headers,
        rows,
        "Table 3: measured user times (simulated seconds) and model "
        f"parameters ({evaluation.n_processors} processors, threshold "
        f"{evaluation.threshold})",
    )


def format_table4(evaluation: Evaluation, include_paper: bool = True) -> str:
    """Render Table 4: system-time overhead of NUMA management."""
    headers = ["Application", "Snuma", "Sglobal", "ΔS", "Tnuma", "ΔS/Tnuma"]
    if include_paper:
        headers += ["ΔS/Tnuma(paper)"]
    rows = []
    for row in evaluation.rows:
        if row.application not in TABLE_4_WORKLOADS:
            continue
        m = row.measurement
        cells = [
            row.application,
            f"{m.numa.system_time_s:.2f}",
            f"{m.all_global.system_time_s:.2f}",
            _fmt(row.delta_s, 2),
            f"{m.t_numa_s:.1f}",
            f"{row.delta_over_t * 100:.1f}%",
        ]
        if include_paper:
            paper = TABLE_4.get(row.application)
            cells += [
                f"{paper.delta_over_t * 100:.1f}%" if paper else "-"
            ]
        rows.append(cells)
    return _format_table(
        headers,
        rows,
        "Table 4: total system time (simulated seconds) on "
        f"{evaluation.n_processors} processors",
    )


def format_measured_alpha(evaluation: Evaluation) -> str:
    """Extra table the paper could not print: ground-truth α per app.

    The simulator observes every reference, so the model-recovered α of
    Table 3 can be validated against the directly measured fraction of
    local writable-data references.
    """
    headers = ["Application", "α(model)", "α(measured)", "moves", "pinned-ish"]
    rows = []
    for row in evaluation.rows:
        m = row.measurement.numa
        rows.append(
            [
                row.application,
                row.params.format_alpha(),
                "na" if m.measured_alpha is None else f"{m.measured_alpha:.2f}",
                str(m.stats.moves),
                str(m.stats.local_memory_fallbacks),
            ]
        )
    return _format_table(
        headers, rows, "Model-recovered vs directly measured α"
    )
