"""The cache-backed dataset layer: ``.repro-cache/`` as system of record.

Every number this repository publishes is computed by some
fingerprinted :class:`~repro.exp.spec.RunSpec`, and PR 5's
content-addressed :class:`~repro.exp.cache.ResultCache` already holds
the byte-identical :class:`~repro.exp.spec.Outcome` for every spec that
has ever run.  This module closes the loop, in the shape of
MBradbury/slp's ``data.table``/``data.graph`` pipeline: scan the cache
directory, join each cached outcome back to its spec key (workload,
policy, threshold, topology, seed, fault profile), derive the metrics
the paper's tables are made of (α, β, γ, speedup, elapsed-µs, TLB hit
ratio, fault/recovery counters) into a
:class:`~repro.analysis.frames.DataTable`, and generate summary tables
and versus-plots from it — with **zero re-execution** and a fingerprint
footnote on every artifact.

Layers, bottom up:

* :class:`CacheDataset` — a loaded scan with spec-addressed lookup and
  the flat derived-metric table (:meth:`CacheDataset.table`);
* :func:`evaluation_from_dataset` — rejoins the paper's three-run
  triples (Tnuma/Tglobal/Tlocal) from cached outcomes through
  :func:`~repro.analysis.report.join_evaluation`, the same joiner a
  live :func:`~repro.analysis.report.run_evaluation` uses;
* section generators (:func:`threshold_versus_section`,
  :func:`policy_tournament_section` — the same joiner over
  :func:`~repro.exp.grid.policy_tournament` — :func:`chaos_fan_section`,
  :func:`summary_section`) — slp-style
  summary and versus artifacts, each returning its text together with
  the contributing fingerprints so
  :mod:`repro.analysis.repro_report` can footnote provenance.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.frames import DataTable, Row
from repro.analysis.report import (
    Evaluation,
    EvaluationJoin,
    join_evaluation,
)
from repro.analysis.versus import versus_from_table
from repro.exp.cache import (
    CACHE_SCHEMA,
    DEFAULT_CACHE_DIR,
    CacheEntry,
    CacheScan,
    ResultCache,
)
from repro.exp.grid import (
    DEFAULT_TOURNAMENT_POLICIES,
    PolicyChoice,
    policy_tournament,
    table3_grid,
)
from repro.exp.spec import Outcome, RunSpec

#: Fingerprint prefix length used in human-facing footnotes; full
#: fingerprints always travel in the ``--json`` manifest.
SHORT_FP = 12


def short_fp(fingerprint: str) -> str:
    """The human-facing fingerprint prefix (manifests keep the full hash)."""
    return fingerprint[:SHORT_FP]


def render_params(pairs) -> str:
    """Canonical compact rendering of policy-parameter pairs.

    Empty pairs render as the empty string so the default-policy rows
    (every pre-existing cache entry) are visually unchanged.
    """
    return ",".join(f"{k}={v}" for k, v in sorted(pairs))


def derive_row(entry: CacheEntry) -> Row:
    """Flatten one cache entry into the derived-metric table's row shape.

    Spec identity columns come straight from the spec key; metric
    columns are normalized across outcome kinds where they exist for
    both (times, rounds, moves) and ``None`` where they do not, so one
    table holds plain runs and chaos runs side by side.
    """
    spec, outcome = entry.spec, entry.outcome
    row: Row = {
        "fingerprint": entry.fingerprint,
        "kind": outcome.kind,
        "workload": spec.workload,
        "policy": spec.policy,
        "policy_params": render_params(spec.policy_params),
        "threshold": spec.threshold,
        "quick": spec.quick,
        "n_processors": spec.n_processors,
        "n_threads": spec.n_threads,
        "fault_profile": spec.fault_profile,
        "fault_seed": spec.fault_seed,
        "user_time_s": outcome.user_time_us / 1e6,
        "system_time_s": outcome.system_time_us / 1e6,
        "elapsed_us": outcome.elapsed_us,
        "rounds": outcome.rounds,
    }
    if outcome.result is not None:
        result = outcome.result
        row.update(
            {
                "measured_alpha": result.measured_alpha,
                "store_fraction": result.store_fraction,
                "moves": result.stats.moves,
                "copies_to_local": result.stats.copies_to_local,
                "syncs": result.stats.syncs,
                "zero_fills": result.stats.zero_fills,
                "local_memory_fallbacks": (
                    result.stats.local_memory_fallbacks
                ),
                "faults_injected": None,
                "transfer_retries": result.stats.transfer_retries,
                "degraded_pages": None,
                "offline_frames": None,
                "tlb_hit_ratio": None,
                "tlb_shootdowns": None,
            }
        )
    else:
        chaos = outcome.chaos
        injected = sum(
            value
            for key, value in chaos.faults.items()
            if key.startswith("injected_") and isinstance(value, int)
        )
        tlb_lookups = chaos.tlb.get("hits", 0) + chaos.tlb.get("misses", 0)
        row.update(
            {
                "measured_alpha": None,
                "store_fraction": None,
                "moves": chaos.numa.get("moves"),
                "copies_to_local": chaos.numa.get("copies_to_local"),
                "syncs": chaos.numa.get("syncs"),
                "zero_fills": chaos.numa.get("zero_fills"),
                "local_memory_fallbacks": chaos.numa.get(
                    "local_memory_fallbacks"
                ),
                "faults_injected": injected,
                "transfer_retries": chaos.faults.get("transfer_retries"),
                "degraded_pages": chaos.degraded_pages,
                "offline_frames": chaos.offline_frames,
                "tlb_hit_ratio": (
                    chaos.tlb.get("hits", 0) / tlb_lookups
                    if tlb_lookups
                    else None
                ),
                "tlb_shootdowns": chaos.tlb.get("shootdowns"),
            }
        )
    return row


class CacheDataset:
    """A loaded cache scan with spec-addressed lookup and derived metrics."""

    def __init__(self, scan: CacheScan) -> None:
        self.scan = scan
        self._by_fp = scan.by_fingerprint()
        self._table: Optional[DataTable] = None

    @classmethod
    def load(
        cls, root: Union[str, Path] = DEFAULT_CACHE_DIR
    ) -> "CacheDataset":
        """Scan *root* (corrupt/foreign/stale files skipped, not fatal)."""
        return cls(ResultCache(root).scan())

    # -- lookup --------------------------------------------------------------

    @property
    def entries(self) -> List[CacheEntry]:
        """Every valid entry, in stable (path-sorted) order."""
        return self.scan.entries

    def __len__(self) -> int:
        return len(self.scan.entries)

    def has(self, spec: RunSpec) -> bool:
        """Whether *spec*'s outcome is in the cache."""
        return spec.fingerprint() in self._by_fp

    def get(self, spec: RunSpec) -> Optional[Outcome]:
        """The cached outcome for *spec*, or ``None``."""
        entry = self._by_fp.get(spec.fingerprint())
        return None if entry is None else entry.outcome

    def entry_for(self, spec: RunSpec) -> Optional[CacheEntry]:
        """The full cache entry for *spec*, or ``None``."""
        return self._by_fp.get(spec.fingerprint())

    def missing(self, specs: Sequence[RunSpec]) -> List[RunSpec]:
        """The subset of *specs* the cache cannot serve (input order)."""
        return [spec for spec in specs if not self.has(spec)]

    # -- derived metrics -----------------------------------------------------

    def table(self) -> DataTable:
        """The derived-metric table: one row per valid cache entry."""
        if self._table is None:
            self._table = DataTable(
                [derive_row(entry) for entry in self.entries]
            )
        return self._table


def evaluation_from_dataset(
    dataset: CacheDataset,
    apps: Optional[Sequence[str]] = None,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
) -> EvaluationJoin:
    """Rebuild the Tables 3–4 evaluation from cached outcomes only.

    The required grid is :func:`~repro.exp.grid.table3_grid` itself
    (``check_invariants=False`` default included), so the specs a
    ``repro-numa batch`` run caches are the exact fingerprints looked
    up here.
    """
    return join_evaluation(
        table3_grid(
            apps, n_processors=n_processors, threshold=threshold, quick=quick
        ),
        dataset.get,
        n_processors,
        threshold,
    )


def footnote(fingerprints: Sequence[str], note: str = "") -> str:
    """The provenance line under every cache-derived artifact."""
    shorts = ", ".join(short_fp(fp) for fp in sorted(set(fingerprints)))
    suffix = f"; {note}" if note else ""
    return (
        f"> derived from {len(set(fingerprints))} cached spec(s) "
        f"[{CACHE_SCHEMA}]: {shorts}{suffix}"
    )


#: A generated artifact: title, body text, contributing fingerprints.
Section = Tuple[str, str, List[str]]


def summary_section(dataset: CacheDataset) -> Section:
    """slp-style summary: every cached run rolled up per configuration."""
    table = dataset.table()
    runs = table.where(kind="run")
    if not runs:
        return (
            "Cache summary",
            "(no plain-run entries in the cache)",
            [],
        )
    summary = runs.aggregate(
        (
            "workload", "policy", "policy_params", "threshold", "quick",
            "n_processors",
        ),
        {
            "specs": ("fingerprint", "count"),
            "user_s": ("user_time_s", "mean"),
            "system_s": ("system_time_s", "mean"),
            "moves": ("moves", "sum"),
            "alpha": ("measured_alpha", "mean"),
        },
    ).sort_by(
        "workload", "policy", "policy_params", "threshold", "quick",
        "n_processors",
    )
    fps = [str(fp) for fp in runs.column("fingerprint")]
    return ("Cache summary (plain runs)", summary.to_markdown(), fps)


def threshold_versus_section(
    dataset: CacheDataset,
    n_processors: int = 7,
    quick: bool = False,
) -> Section:
    """γ versus move threshold, one series per cached application.

    γ needs each application's Tlocal baseline (all-local on one
    processor), so only workloads with both a cached baseline and at
    least one cached ``move-threshold`` run appear; the band collapses
    to the mean marker because these runs are deterministic.
    """
    table = dataset.table()
    tnuma = table.where(
        kind="run",
        policy="move-threshold",
        quick=quick,
        n_processors=n_processors,
        fault_profile=None,
    )
    tlocal = table.where(
        kind="run", policy="all-local", quick=quick, n_processors=1,
        fault_profile=None,
    )
    base: Dict[object, Tuple[float, str]] = {}
    for row in tlocal.rows:
        base[row["workload"]] = (
            float(row["user_time_s"]), str(row["fingerprint"])
        )
    points: List[Row] = []
    fps: List[str] = []
    for row in tnuma.rows:
        baseline = base.get(row["workload"])
        if baseline is None or baseline[0] <= 0:
            continue
        points.append(
            {
                "workload": row["workload"],
                "threshold": row["threshold"],
                "gamma": float(row["user_time_s"]) / baseline[0],
                "moves": row["moves"],
                "t_numa_s": row["user_time_s"],
                "s_numa_s": row["system_time_s"],
            }
        )
        fps.append(str(row["fingerprint"]))
        fps.append(baseline[1])
    if not points:
        return (
            "Move-threshold versus-plot",
            "(no cached move-threshold runs with an all-local baseline)",
            [],
        )
    sweep = DataTable(points).sort_by("workload", "threshold")
    plot = versus_from_table(
        sweep,
        x="threshold",
        y="gamma",
        series_by="workload",
        title=(
            f"user-time expansion gamma vs move threshold "
            f"({n_processors} processors)"
        ),
    )
    detail = sweep.select(
        "workload", "threshold", "t_numa_s", "s_numa_s", "moves", "gamma"
    ).to_markdown()
    return (
        "Move-threshold versus-plot",
        "```\n" + plot + "\n```\n\n" + detail,
        fps,
    )


def policy_tournament_section(
    dataset: CacheDataset,
    apps: Optional[Sequence[str]] = None,
    policies: Sequence[PolicyChoice] = DEFAULT_TOURNAMENT_POLICIES,
    n_processors: int = 7,
    threshold: int = 4,
    quick: bool = False,
) -> Section:
    """The policy tournament: α/β/γ per entrant, deltas vs the paper.

    For every application with cached Tglobal/Tlocal baselines, each
    cached entrant's run goes through the joiner Table 3 goes through
    (:func:`~repro.analysis.report.join_evaluation`), and its α, β and γ
    are compared against the ``move-threshold`` entrant of the same
    application (Δα > 0 means more local references than the paper's
    policy; Δγ < 0 means closer to uniprocessor time).  Entrants or
    baselines the cache cannot serve are listed instead of silently
    dropped.
    """
    join = join_evaluation(
        policy_tournament(
            apps=apps,
            policies=policies,
            n_processors=n_processors,
            threshold=threshold,
            quick=quick,
        ),
        dataset.get,
        n_processors,
        threshold,
    )
    rows = join.evaluation.rows
    paper = {
        row.application: row.params
        for row in rows
        if row.entrant == "move-threshold"
    }

    def delta(row, name: str) -> Optional[float]:
        """Entrant minus the paper's policy, ``None`` where either is na."""
        ours = getattr(row.params, name)
        base = getattr(paper.get(row.application), name, None)
        if row.entrant == "move-threshold" or ours is None or base is None:
            return None
        return round(ours - base, 4)

    points: List[Row] = [
        {
            "workload": row.application,
            "policy": row.entrant,
            "t_numa_s": round(row.measurement.t_numa_s, 3),
            "alpha": (
                None
                if row.params.alpha is None
                else round(row.params.alpha, 4)
            ),
            "beta": round(row.params.beta, 4),
            "gamma": round(row.params.gamma, 4),
            "d_alpha": delta(row, "alpha"),
            "d_beta": delta(row, "beta"),
            "d_gamma": delta(row, "gamma"),
        }
        for row in rows
    ]
    body = "(no cached tournament runs)"
    if points:
        body = DataTable(points).sort_by("workload", "policy").to_markdown()
    if join.missing:
        body += "\n\nmissing specs:\n\n" + "\n".join(
            f"- `{line}`" for line in missing_lines(join.missing)
        )
    return ("Policy tournament", body, join.fingerprints)


def chaos_fan_section(dataset: CacheDataset) -> Section:
    """Seed-fan rollup of every cached chaos run, with min/mean/max bands."""
    chaos = dataset.table().where(kind="chaos")
    if not chaos:
        return ("Chaos seed fans", "(no chaos entries in the cache)", [])
    fan = chaos.aggregate(
        ("workload", "fault_profile"),
        {
            "seeds": ("fault_seed", "count"),
            "inj_min": ("faults_injected", "min"),
            "inj_mean": ("faults_injected", "mean"),
            "inj_max": ("faults_injected", "max"),
            "retries": ("transfer_retries", "sum"),
            "degraded": ("degraded_pages", "sum"),
            "tlb_hit": ("tlb_hit_ratio", "mean"),
        },
    ).sort_by("workload", "fault_profile")
    plot = versus_from_table(
        chaos,
        x="fault_profile",
        y="faults_injected",
        series_by="workload",
        title="injected faults per profile (band = spread across seeds)",
    )
    fps = [str(fp) for fp in chaos.column("fingerprint")]
    return (
        "Chaos seed fans",
        fan.to_markdown() + "\n\n```\n" + plot + "\n```",
        fps,
    )


def missing_lines(missing: Sequence[RunSpec]) -> List[str]:
    """Human-readable ``--missing`` listing (label + fingerprint)."""
    return [
        f"{spec.fingerprint()}  {spec.label}"
        for spec in sorted(missing, key=lambda s: s.fingerprint())
    ]


def report_missing_spec(spec: RunSpec) -> Dict[str, object]:
    """The ``--json`` record for one required spec the cache cannot serve."""
    return {
        "t": "report_missing_spec",
        "fingerprint": spec.fingerprint(),
        "label": spec.label,
    }


def table3_frame(evaluation: Evaluation) -> DataTable:
    """Table 3 as a DataTable, for the CSV/LaTeX emitters."""
    rows = []
    for row in evaluation.rows:
        m = row.measurement
        rows.append(
            {
                "application": row.application,
                "t_global_s": round(m.t_global_s, 3),
                "t_numa_s": round(m.t_numa_s, 3),
                "t_local_s": round(m.t_local_s, 3),
                "alpha": (
                    None
                    if row.params.alpha is None
                    else round(row.params.alpha, 4)
                ),
                "beta": round(row.params.beta, 4),
                "gamma": round(row.params.gamma, 4),
                "speedup_vs_global": (
                    round(m.t_global_s / m.t_numa_s, 4)
                    if m.t_numa_s
                    else None
                ),
            }
        )
    return DataTable(rows)


def table4_frame(evaluation: Evaluation) -> DataTable:
    """Table 4 as a DataTable, for the CSV/LaTeX emitters."""
    from repro.workloads import TABLE_4_WORKLOADS

    rows = []
    for row in evaluation.rows:
        if row.application not in TABLE_4_WORKLOADS:
            continue
        m = row.measurement
        rows.append(
            {
                "application": row.application,
                "s_numa_s": round(m.numa.system_time_s, 4),
                "s_global_s": round(m.all_global.system_time_s, 4),
                "delta_s": (
                    None
                    if row.delta_s is None
                    else round(row.delta_s, 4)
                ),
                "t_numa_s": round(m.t_numa_s, 3),
                "delta_over_t": round(row.delta_over_t, 5),
            }
        )
    return DataTable(rows)
