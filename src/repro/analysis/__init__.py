"""Analysis: the paper's model, traces, reports from the result cache.

Alongside the classic model/trace analytics, this package hosts the
cache-backed reporting layer: :mod:`repro.analysis.frames` (the
dependency-free :class:`~repro.analysis.frames.DataTable`),
:mod:`repro.analysis.cachereport` (derived metrics over
``.repro-cache/``) and :mod:`repro.analysis.versus` (ASCII versus
plots), feeding ``repro-numa report --from-cache``.
"""

from repro.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bus": ("BusReport", "analyze_bus"),
    "cachereport": ("CacheDataset", "derive_row", "evaluation_from_dataset"),
    "diagrams": ("figure1", "figure2", "wiring_report"),
    "false_sharing": (
        "FalseSharingReport",
        "PageClass",
        "PageReport",
        "analyze",
        "classify_pages",
    ),
    "frames": ("DataTable", "format_cell"),
    "layout_advisor": ("Advice", "AdviceKind", "LayoutReport", "advise"),
    "model": (
        "ModelParameters",
        "gamma",
        "predict_t_global",
        "predict_t_numa",
        "solve",
        "solve_alpha",
        "solve_beta",
    ),
    "optimal": (
        "OptimalComparison",
        "compare_to_optimal",
        "compress_events",
        "optimal_page_cost",
    ),
    "report": (
        "Evaluation",
        "EvaluationJoin",
        "EvaluationRow",
        "format_measured_alpha",
        "format_table3",
        "format_table4",
        "run_evaluation",
    ),
    "speedup": ("SpeedupCurve", "SpeedupPoint", "elapsed_us", "speedup_curve"),
    "tracing": ("FaultEvent", "PageTraceSummary", "RefEvent", "TraceCollector"),
    "versus": ("VersusSeries", "versus_from_table", "versus_plot"),
})
