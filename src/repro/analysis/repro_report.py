"""One-shot reproduction report: every table, figure and check, as text.

``repro-numa report`` assembles a single markdown document with the
whole evaluation — Tables 1-4, Figures 1-2, the latency check, the
measured-α cross-check — so a reader can regenerate the paper's
artifacts with one command and diff the result against EXPERIMENTS.md.

:func:`generate_cache_report` renders that document purely from a
:class:`~repro.analysis.cachereport.CacheDataset` over ``.repro-cache/``
— **zero re-execution**, every artifact footnoted with the spec
fingerprints and cache-schema version it was derived from, and
byte-identical output for an identical cache.  A live report is a cache
fill (:func:`~repro.exp.batch.run_batch` over the required grid)
followed by this render, which is what ``repro-numa report`` does.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__
from repro.analysis.cachereport import (
    CacheDataset,
    Section,
    chaos_fan_section,
    evaluation_from_dataset,
    footnote,
    missing_lines,
    policy_tournament_section,
    report_missing_spec,
    summary_section,
    table3_frame,
    table4_frame,
    threshold_versus_section,
)
from repro.analysis.diagrams import figure1, figure2, wiring_report
from repro.analysis.paper import ACE_RATIOS
from repro.analysis.report import (
    Evaluation,
    EvaluationJoin,
    format_measured_alpha,
    format_table3,
    format_table4,
)
from repro.core.transitions import READ_TABLE, WRITE_TABLE
from repro.exp.cache import CACHE_SCHEMA
from repro.exp.spec import SPEC_SCHEMA
from repro.machine.config import TimingParameters, ace_config


def _render_transition_table(table, title: str) -> str:
    lines = [title, "```"]
    for (decision, state), spec in table.items():
        cleanup, copy, new_state = spec.describe()
        lines.append(
            f"{decision.name:6s} x {state.value:28s} -> "
            f"{cleanup:16s} | {copy:13s} | {new_state}"
        )
    lines.append("```")
    return "\n".join(lines)


def _header_sections(n_processors: int, threshold: int) -> List[str]:
    """The report's static preamble."""
    timing = TimingParameters()
    return [
        "# Reproduction report",
        "",
        f"repro {__version__} — Bolosky, Fitzgerald & Scott, "
        '"Simple But Effective Techniques for NUMA Memory Management" '
        "(SOSP '89)",
        "",
        f"Machine: {n_processors} simulated processors, move threshold "
        f"{threshold}.",
        "",
        "## Section 2.2 — memory latencies",
        "```",
        f"local fetch {timing.local_fetch_us} us / store "
        f"{timing.local_store_us} us; global fetch "
        f"{timing.global_fetch_us} us / store {timing.global_store_us} us",
        f"G/L fetch {timing.fetch_ratio:.2f} (paper {ACE_RATIOS['fetch']}), "
        f"store {timing.store_ratio:.2f} (paper {ACE_RATIOS['store']}), "
        f"45%-store mix {timing.mix_ratio(0.45):.2f} "
        f"(paper {ACE_RATIOS['mix_45pct_stores']})",
        "```",
        "",
        "## Tables 1-2 — protocol actions (from the live transition rules)",
        _render_transition_table(READ_TABLE, "### Table 1 — read requests"),
        "",
        _render_transition_table(WRITE_TABLE, "### Table 2 — write requests"),
        "",
    ]


def _figure_sections(n_processors: int) -> List[str]:
    return [
        "## Figure 1 — ACE memory architecture",
        "```",
        figure1(ace_config(n_processors)),
        "```",
        "",
        "## Figure 2 — the pmap layer",
        "```",
        figure2(),
        "",
        wiring_report(),
        "```",
        "",
    ]


@dataclass
class ReportArtifact:
    """One generated artifact and the cached specs it was derived from."""

    name: str
    #: Full contributing fingerprints, sorted and deduplicated.
    fingerprints: List[str]

    def as_record(self) -> Dict[str, object]:
        """The ``--json`` manifest record for this artifact."""
        return {
            "t": "report_artifact",
            "name": self.name,
            "specs": len(self.fingerprints),
            "fingerprints": self.fingerprints,
        }


@dataclass
class CacheReportBundle:
    """Everything one cache-backed report generation produced."""

    document: str
    artifacts: List[ReportArtifact]
    join: EvaluationJoin
    #: Valid entries / skipped files in the scanned cache.
    cache_entries: int
    cache_skipped: Dict[str, int]
    #: Specs simulated by this invocation (0 unless ``--fill`` ran).
    executed: int = 0

    @property
    def sha256(self) -> str:
        """Content hash of the document (the byte-identity witness)."""
        return hashlib.sha256(self.document.encode("utf-8")).hexdigest()

    def manifest_records(self) -> List[Dict[str, object]]:
        """The ``--json`` contract: summary first, then per-artifact rows."""
        records: List[Dict[str, object]] = [
            {
                "t": "report_summary",
                "cache_schema": CACHE_SCHEMA,
                "spec_schema": SPEC_SCHEMA,
                "cache_entries": self.cache_entries,
                "cache_skipped": dict(sorted(self.cache_skipped.items())),
                "required": self.join.required,
                "cached": len(self.join.fingerprints),
                "missing": len(self.join.missing),
                "cache_ratio": round(self.join.cache_ratio, 4),
                "executed": self.executed,
                "sha256": self.sha256,
            }
        ]
        records.extend(artifact.as_record() for artifact in self.artifacts)
        records.extend(map(report_missing_spec, self.join.missing))
        return records


#: The evaluation's three views: artifact name, section title, renderer.
_EVALUATION_VIEWS = (
    ("table3", "Table 3 — the evaluation (from cache)", format_table3),
    (
        "table4",
        "Table 4 — NUMA-management overhead (from cache)",
        format_table4,
    ),
    (
        "alpha",
        "Measured vs model-recovered alpha (from cache)",
        format_measured_alpha,
    ),
)

_NO_TRIPLE = (
    "(no complete Tnuma/Tglobal/Tlocal triple in the cache; "
    "run `repro-numa batch --grid table3` or pass `--fill`)"
)


def generate_cache_report(
    dataset: CacheDataset,
    apps: Optional[Sequence[str]] = None,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
    executed: int = 0,
) -> CacheReportBundle:
    """Regenerate every table and figure purely from cached outcomes.

    Nothing simulates here: the α/β/γ fits come from
    :func:`~repro.analysis.cachereport.evaluation_from_dataset`, the
    sweep studies from the derived-metric table, and each artifact
    carries a footnote naming its contributing spec fingerprints and
    the cache schema — identical cache in, byte-identical document out.
    """
    join = evaluation_from_dataset(
        dataset,
        apps=apps,
        n_processors=n_processors,
        threshold=threshold,
        quick=quick,
    )
    evaluation = join.evaluation
    shared = dict(n_processors=n_processors, quick=quick)
    # The document's cache-derived part: (artifact name, section), in order.
    if evaluation.rows:
        table: List[Tuple[str, Section]] = [
            (
                name,
                (title, f"```\n{render(evaluation)}\n```", join.fingerprints),
            )
            for name, title, render in _EVALUATION_VIEWS
        ]
    else:
        table = [("table3", (_EVALUATION_VIEWS[0][1], _NO_TRIPLE, []))]
    table += [
        ("versus-threshold", threshold_versus_section(dataset, **shared)),
        (
            "policy-tournament",
            policy_tournament_section(
                dataset, apps=apps, threshold=threshold, **shared
            ),
        ),
        ("chaos-fans", chaos_fan_section(dataset)),
        ("cache-summary", summary_section(dataset)),
    ]
    artifacts: List[ReportArtifact] = []
    sections = _header_sections(n_processors, threshold)
    for name, (title, body, fps) in table:
        fingerprints = sorted(set(str(fp) for fp in fps))
        artifacts.append(ReportArtifact(name=name, fingerprints=fingerprints))
        note = "> derived from 0 cached spec(s)"
        if fingerprints:
            note = footnote(fingerprints)
        sections.extend([f"## {title}", body, "", note, ""])

    sections += _figure_sections(n_processors)

    skipped = dataset.scan.skipped_by_reason()
    skip_detail = ", ".join(
        f"{reason}: {count}" for reason, count in sorted(skipped.items())
    )
    sections += [
        "## Provenance",
        "```",
        f"spec schema   {SPEC_SCHEMA}",
        f"cache schema  {CACHE_SCHEMA}",
        f"cache entries {len(dataset)} valid, "
        f"{sum(skipped.values())} skipped"
        + (f" ({skip_detail})" if skip_detail else ""),
        f"required      {join.required} specs, "
        f"{len(join.fingerprints)} served from cache, "
        f"{len(join.missing)} missing, {executed} executed",
        "```",
        "",
    ]
    if join.missing:
        sections += [
            "### Missing specs",
            "```",
            *missing_lines(join.missing),
            "```",
            "",
        ]

    return CacheReportBundle(
        document="\n".join(sections),
        artifacts=artifacts,
        join=join,
        cache_entries=len(dataset),
        cache_skipped=skipped,
        executed=executed,
    )


def emit_tables(
    evaluation: Evaluation, directory: Union[str, pathlib.Path]
) -> List[pathlib.Path]:
    """Write Table 3/4 data files (CSV and LaTeX) next to the report.

    Returns the written paths; used by ``repro-numa report --tables``
    and the committed ``benchmarks/_artifacts`` bundle.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    frames = {
        "table3": table3_frame(evaluation),
        "table4": table4_frame(evaluation),
    }
    written: List[pathlib.Path] = []
    for name, frame in frames.items():
        latex = frame.to_latex(
            caption=f"Regenerated {name} (from cache)", label=f"tab:{name}"
        )
        for suffix, text in ((".csv", frame.to_csv()), (".tex", latex + "\n")):
            path = directory / f"{name}{suffix}"
            path.write_text(text)
            written.append(path)
    return written
