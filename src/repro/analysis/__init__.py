"""Analysis: the paper's model, traces, reports from the result cache.

Alongside the classic model/trace analytics, this package hosts the
cache-backed reporting layer: :mod:`repro.analysis.frames` (the
dependency-free :class:`~repro.analysis.frames.DataTable`),
:mod:`repro.analysis.cachereport` (derived metrics over
``.repro-cache/``) and :mod:`repro.analysis.versus` (ASCII versus
plots), feeding ``repro-numa report --from-cache``.
"""

from repro.analysis import model, paper
from repro.analysis.cachereport import (
    CacheDataset,
    derive_row,
    evaluation_from_dataset,
)
from repro.analysis.frames import DataTable, format_cell
from repro.analysis.versus import VersusSeries, versus_from_table, versus_plot
from repro.analysis.bus import BusReport, analyze_bus
from repro.analysis.diagrams import figure1, figure2, wiring_report
from repro.analysis.layout_advisor import (
    Advice,
    AdviceKind,
    LayoutReport,
    advise,
)
from repro.analysis.false_sharing import (
    FalseSharingReport,
    PageClass,
    PageReport,
    analyze,
    classify_pages,
)
from repro.analysis.model import (
    ModelParameters,
    gamma,
    predict_t_global,
    predict_t_numa,
    solve,
    solve_alpha,
    solve_beta,
)
from repro.analysis.optimal import (
    OptimalComparison,
    compare_to_optimal,
    compress_events,
    optimal_page_cost,
)
from repro.analysis.speedup import (
    SpeedupCurve,
    SpeedupPoint,
    elapsed_us,
    speedup_curve,
)
from repro.analysis.report import (
    Evaluation,
    EvaluationJoin,
    EvaluationRow,
    format_measured_alpha,
    format_table3,
    format_table4,
    run_evaluation,
)
from repro.analysis.tracing import (
    FaultEvent,
    PageTraceSummary,
    RefEvent,
    TraceCollector,
)

__all__ = [
    "model",
    "paper",
    "CacheDataset",
    "EvaluationJoin",
    "derive_row",
    "evaluation_from_dataset",
    "DataTable",
    "format_cell",
    "VersusSeries",
    "versus_from_table",
    "versus_plot",
    "BusReport",
    "analyze_bus",
    "figure1",
    "figure2",
    "wiring_report",
    "FalseSharingReport",
    "PageClass",
    "PageReport",
    "analyze",
    "classify_pages",
    "Advice",
    "AdviceKind",
    "LayoutReport",
    "advise",
    "SpeedupCurve",
    "SpeedupPoint",
    "elapsed_us",
    "speedup_curve",
    "ModelParameters",
    "gamma",
    "predict_t_global",
    "predict_t_numa",
    "solve",
    "solve_alpha",
    "solve_beta",
    "OptimalComparison",
    "compare_to_optimal",
    "compress_events",
    "optimal_page_cost",
    "Evaluation",
    "EvaluationRow",
    "format_measured_alpha",
    "format_table3",
    "format_table4",
    "run_evaluation",
    "FaultEvent",
    "PageTraceSummary",
    "RefEvent",
    "TraceCollector",
]
