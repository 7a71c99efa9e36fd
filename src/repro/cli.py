"""Command-line interface: regenerate every table and figure.

Usage::

    repro-numa table3            # Table 3 (the headline evaluation)
    repro-numa table4            # Table 4 (system-time overhead)
    repro-numa tables12          # Tables 1-2 from the live transition rules
    repro-numa figures           # Figures 1-2 from the live configuration
    repro-numa latency           # Section 2.2 latency table
    repro-numa alpha             # model-recovered vs measured alpha
    repro-numa sweep             # move-threshold ablation
    repro-numa false-sharing     # Primes2 case study (Section 4.2)
    repro-numa optimal           # Tnuma vs offline-optimal placement
    repro-numa advise            # layout advice from a reference trace
    repro-numa bus               # IPC-bus utilization per application
    repro-numa speedup           # speedup curves (elapsed-time view)
    repro-numa metrics ParMult   # telemetry: time series + profile
    repro-numa chaos parmult --profile transient --seed 7
                                 # run a workload under fault injection
    repro-numa lint              # static protocol/hygiene lint over src/
    repro-numa modelcheck        # verify Tables 1-2 against the paper
    repro-numa races             # race detector: static guard lint +
                                 # dynamic lockset/happens-before pass
    repro-numa races --static    # static layer only (fast CI mode)
    repro-numa report --from-cache
                                 # regenerate every table/figure from the
                                 # result cache, zero re-execution
    repro-numa cache ls          # inspect .repro-cache/ entries
    repro-numa cache gc --schema-mismatch
                                 # prune stale-schema entries safely
    repro-numa all               # tables, figures, latencies, alpha

``--quick`` uses the scaled-down test workloads (seconds instead of
minutes of wall time for the sweep-style commands).  ``--json PATH``
additionally dumps the command's data as JSON lines through the
telemetry exporters.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.paper import ACE_LATENCIES, PRIMES2_FALSE_SHARING_ALPHA
from repro.analysis.report import (
    format_measured_alpha,
    format_table3,
    format_table4,
    run_evaluation,
)
from repro.errors import ConfigurationError, ReproError
from repro.exp.grid import GRIDS, flatten, sweep_groups
from repro.exp.spec import resolve_workload
from repro.machine.config import TimingParameters, ace_config
from repro.obs.exporters import JsonSink
from repro.workloads import TABLE_3_WORKLOADS, small_workloads


def _cache_from(args: argparse.Namespace):
    """The ``ResultCache`` the command-line flags ask for (or ``None``).

    ``--cache-dir`` opts a command into the on-disk result cache;
    ``--no-cache`` wins over it (the ``batch`` command defaults the
    directory on, so it needs the off switch).
    """
    if getattr(args, "no_cache", False) or not args.cache_dir:
        return None
    from repro.exp.cache import ResultCache

    return ResultCache(args.cache_dir)


def _evaluation_from_args(args: argparse.Namespace):
    """The Tables 3–4 evaluation, via the batch orchestrator.

    All evaluation-shaped commands (``table3``, ``table4``, ``alpha``,
    ``all``) share this path, so ``--quick``, ``--jobs`` and
    ``--cache-dir`` behave identically across them.
    """
    return run_evaluation(
        n_processors=args.processors,
        threshold=args.threshold,
        quick=args.quick,
        jobs=args.jobs,
        cache=_cache_from(args),
    )


def _sink_evaluation(args: argparse.Namespace, evaluation) -> None:
    """Push one evaluation (Tables 3/4 data) into the ``--json`` sink."""
    sink: JsonSink = args.sink
    for row in evaluation.rows:
        m = row.measurement
        sink.add(
            {
                "t": "evaluation_row",
                "application": row.application,
                "t_global_s": m.t_global_s,
                "t_numa_s": m.t_numa_s,
                "t_local_s": m.t_local_s,
                "alpha_model": row.params.alpha,
                "alpha_measured": m.numa.measured_alpha,
                "beta": row.params.beta,
                "gamma": row.params.gamma,
                "s_numa_s": m.numa.system_time_s,
                "s_global_s": m.all_global.system_time_s,
                "delta_s": row.delta_s,
                "stats": m.numa.stats.as_dict(),
            }
        )


def _evaluation_command(formatter, doc: str):
    """An evaluation-shaped command: run Tables 3–4, print one view."""

    def run(args: argparse.Namespace) -> None:
        evaluation = _evaluation_from_args(args)
        _sink_evaluation(args, evaluation)
        print(formatter(evaluation))

    run.__doc__ = doc
    return run


def cmd_metrics(args: argparse.Namespace) -> None:
    """Telemetry for one workload: time series, histograms, profile."""
    from repro.obs import Telemetry
    from repro.sim.harness import measure_placement

    workload = resolve_workload(args.workload, quick=args.quick)
    telemetry = Telemetry(sample_interval=args.sample_interval)
    measurement = measure_placement(
        workload,
        n_processors=args.processors,
        threshold=args.threshold,
        check_invariants=False,
        telemetry=telemetry,
    )
    meta = {
        "workload": workload.name,
        "policy": f"move-threshold({args.threshold})",
        "processors": args.processors,
        "sample_interval": args.sample_interval,
        "rounds": measurement.numa.rounds,
        "t_numa_s": measurement.t_numa_s,
        "t_global_s": measurement.t_global_s,
        "t_local_s": measurement.t_local_s,
    }
    args.sink.extend(telemetry.to_records(meta))
    print(telemetry.summary(meta))


def cmd_tables12(args: argparse.Namespace) -> None:
    """Print Tables 1-2 from the live transition structures."""
    from repro.core.state import PlacementDecision
    from repro.core.transitions import READ_TABLE, WRITE_TABLE, StateKey

    del args
    for title, table in (
        ("Table 1: NUMA Manager Actions for Read Requests", READ_TABLE),
        ("Table 2: NUMA Manager Actions for Write Requests", WRITE_TABLE),
    ):
        print(title)
        columns = [
            StateKey.READ_ONLY,
            StateKey.GLOBAL_WRITABLE,
            StateKey.LOCAL_WRITABLE_OWN,
            StateKey.LOCAL_WRITABLE_OTHER,
        ]
        header = ["Policy"] + [c.value for c in columns]
        widths = [max(28, len(h)) for h in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for decision in (PlacementDecision.LOCAL, PlacementDecision.GLOBAL):
            lines = [["", "", ""] for _ in range(len(columns) + 1)]
            lines[0] = [decision.name, "", ""]
            for i, col in enumerate(columns):
                spec = table[(decision, col)]
                lines[i + 1] = list(spec.describe())
            for row in range(3):
                print(
                    "  ".join(
                        lines[c][row].ljust(widths[c])
                        for c in range(len(columns) + 1)
                    )
                )
            print()
        print()


def cmd_figures(args: argparse.Namespace) -> None:
    """Print Figures 1-2."""
    from repro.analysis.diagrams import figure1, figure2, wiring_report

    config = ace_config(args.processors)
    print(figure1(config))
    print()
    print(figure2())
    print()
    print("module wiring check:")
    print(wiring_report())


def cmd_latency(args: argparse.Namespace) -> None:
    """Section 2.2: reference latencies and G/L ratios."""
    timing = TimingParameters()
    print("32-bit reference times (µs), paper's measured values:")
    for name, value in ACE_LATENCIES.items():
        ours = getattr(timing, name)
        args.sink.add(
            {"t": "latency", "name": name, "paper": value, "model": ours}
        )
        print(f"  {name:18s} paper={value:<5} model={ours}")
    print(f"  G/L fetch ratio     paper=2.3   model={timing.fetch_ratio:.2f}")
    print(f"  G/L store ratio     paper=1.7   model={timing.store_ratio:.2f}")
    print(
        "  G/L 45%-store mix   paper=2.0   "
        f"model={timing.mix_ratio(0.45):.2f}"
    )


def cmd_sweep(args: argparse.Namespace) -> None:
    """Move-threshold ablation: γ and overhead versus the threshold."""
    from repro.exp.batch import run_batch

    groups = sweep_groups(args)
    batch = run_batch(
        flatten(groups), jobs=args.jobs, cache=_cache_from(args)
    )
    results = {row.spec: row.outcome.result for row in batch.rows}
    for group in groups:
        base_local = results[group.tlocal].user_time_s
        print(
            f"{group.application}: threshold sweep "
            f"({args.processors} processors)"
        )
        print("  thresh   Tnuma    Snuma   moves   gamma")
        for threshold, point in group.entrants.items():
            numa = results[point]
            args.sink.add(
                {
                    "t": "sweep_point",
                    "application": group.application,
                    "threshold": threshold,
                    "t_numa_s": numa.user_time_s,
                    "s_numa_s": numa.system_time_s,
                    "moves": numa.stats.moves,
                    "gamma": numa.user_time_s / base_local,
                }
            )
            print(
                f"  {threshold:>6d}  {numa.user_time_s:>6.2f}  "
                f"{numa.system_time_s:>7.2f}  {numa.stats.moves:>6d}  "
                f"{numa.user_time_s / base_local:>6.3f}"
            )
        print()


def cmd_false_sharing(args: argparse.Namespace) -> None:
    """The Primes2 case study of Section 4.2."""
    from repro.sim.harness import measure_placement
    from repro.workloads.primes import Primes2

    limit = 20_000 if args.quick else 200_000
    print("Primes2 divisor placement (Section 4.2):")
    for private in (False, True):
        wl = Primes2(limit=limit, private_divisors=private)
        m = measure_placement(wl, n_processors=args.processors)
        label = "private divisors" if private else "shared divisors "
        paper = PRIMES2_FALSE_SHARING_ALPHA[
            "private_divisors" if private else "shared_divisors"
        ]
        alpha = m.numa.measured_alpha or 0.0
        args.sink.add(
            {
                "t": "false_sharing",
                "private_divisors": private,
                "alpha": alpha,
                "alpha_paper": paper,
                "t_numa_s": m.t_numa_s,
                "moves": m.numa.stats.moves,
            }
        )
        print(
            f"  {label}: alpha={alpha:.2f} (paper {paper:.2f})  "
            f"Tnuma={m.t_numa_s:.1f}s"
        )


def cmd_optimal(args: argparse.Namespace) -> None:
    """Tnuma versus the offline optimal placement (always quick-scale)."""
    from repro.analysis.optimal import compare_to_optimal, protocol_cost_us
    from repro.analysis.tracing import TraceCollector
    from repro.core.policies import MoveThresholdPolicy
    from repro.sim.harness import run_once

    print("Placement cost vs offline optimum (scaled-down workloads):")
    for name, workload in small_workloads().items():
        trace = TraceCollector()
        result = run_once(
            workload,
            MoveThresholdPolicy(threshold=args.threshold),
            n_processors=args.processors,
            observer=trace,
        )
        machine_timing = ace_config(args.processors)
        from repro.machine.timing import TimingModel

        timing = TimingModel(
            machine_timing.timing, machine_timing.page_size_words
        )
        comparison = compare_to_optimal(
            trace, timing, protocol_cost_us(result.stats, timing)
        )
        args.sink.add(
            {
                "t": "optimal",
                "application": name,
                "ratio": comparison.ratio,
                "actual_us": comparison.actual_us,
                "optimal_us": comparison.optimal_us,
                "n_pages": comparison.n_pages,
            }
        )
        if comparison.optimal_us < 1000.0:
            # Against an optimum under 1 ms (ParMult makes almost no
            # data references) a ratio is vacuous: print the gap.
            gap_us = comparison.actual_us - comparison.optimal_us
            cost = f"actual-optimal = {gap_us / 1000.0:.1f} ms"
        else:
            cost = f"actual/optimal = {comparison.ratio:>5.2f}"
        print(f"  {name:10s} {cost}  ({comparison.n_pages} pages)")


def cmd_bus(args: argparse.Namespace) -> None:
    """IPC-bus utilization per application (Section 3.1's assumption)."""
    from repro.analysis.bus import analyze_bus
    from repro.core.policies import MoveThresholdPolicy
    from repro.sim.harness import run_once

    config = ace_config(args.processors)
    print(f"IPC-bus utilization at {args.processors} processors:")
    for name in TABLE_3_WORKLOADS:
        result = run_once(
            resolve_workload(name, quick=args.quick),
            MoveThresholdPolicy(threshold=args.threshold),
            n_processors=args.processors,
            check_invariants=False,
        )
        report = analyze_bus(result, config)
        verdict = "ok" if report.contention_free else "LOADED"
        args.sink.add(
            {
                "t": "bus",
                "application": name,
                "utilization": report.utilization,
                "contention_factor": report.contention_factor,
                "contention_free": report.contention_free,
            }
        )
        print(
            f"  {name:10s} rho={report.utilization:5.3f}  "
            f"x{report.contention_factor:4.2f} est. stretch  {verdict}"
        )


def cmd_speedup(args: argparse.Namespace) -> None:
    """Speedup curves (the elapsed-time view the paper avoided)."""
    from repro.analysis.speedup import speedup_curve

    for name in args.apps or ["Primes1", "Primes3"]:
        workload = resolve_workload(name, quick=args.quick)
        curve = speedup_curve(
            lambda: workload,
            processors=(1, 2, 4, args.processors),
        )
        for point in curve.points:
            args.sink.add(
                {
                    "t": "speedup_point",
                    "application": curve.workload,
                    "processors": point.n_processors,
                    "elapsed_us": point.elapsed_us,
                    "speedup": point.speedup,
                }
            )
        print(curve.format())
        print()


def cmd_advise(args: argparse.Namespace) -> None:
    """Run the layout advisor on one application's trace."""
    from repro.analysis.layout_advisor import advise
    from repro.analysis.tracing import TraceCollector
    from repro.core.policies import MoveThresholdPolicy
    from repro.sim.harness import build_simulation

    for name in args.apps or ["Primes2", "Primes3"]:
        trace = TraceCollector(keep_faults=False)
        sim = build_simulation(
            [resolve_workload(name, quick=args.quick)],
            MoveThresholdPolicy(threshold=args.threshold),
            n_processors=args.processors,
            observer=trace,
            check_invariants=False,
        )
        sim.engine.run(sim.threads)
        report = advise(trace, space=sim.contexts[0].space)
        print(f"{name}: layout advice (top 5 by estimated saving)")
        if not report.advice:
            print("  nothing to improve: no writably-shared traffic found")
        for item in report.top(5):
            saving = item.estimated_saving_us / 1000.0
            print(
                f"  [{item.kind.value:17s}] {item.object_name or '?':20s} "
                f"vpage {item.vpage:>6d}  ~{saving:8.1f} ms  {item.rationale}"
            )
        print()


def cmd_mix(args: argparse.Namespace) -> None:
    """Run two applications simultaneously and compare with standalone."""
    from repro.core.policies import MoveThresholdPolicy
    from repro.sim.harness import run_once
    from repro.sim.mix import run_mix

    names = args.apps or ["IMatMult", "Primes3"]
    workloads = [
        resolve_workload(name, quick=args.quick) for name in names
    ]
    print(f"application mix on {args.processors} processors: "
          f"{' + '.join(names)}")
    standalone = {}
    for workload in workloads:
        result = run_once(
            workload,
            MoveThresholdPolicy(threshold=args.threshold),
            n_processors=args.processors,
            check_invariants=False,
        )
        standalone[workload.name] = result.user_time_us
    mix = run_mix(
        workloads,
        MoveThresholdPolicy(threshold=args.threshold),
        n_processors=args.processors,
        check_invariants=False,
    )
    for task in mix.tasks:
        solo = standalone[task.workload]
        ratio = task.user_time_us / solo if solo else 0.0
        args.sink.add(
            {
                "t": "mix",
                "application": task.workload,
                "standalone_us": solo,
                "in_mix_us": task.user_time_us,
                "ratio": ratio,
            }
        )
        print(
            f"  {task.workload:10s} standalone {solo / 1e6:8.3f}s   "
            f"in mix {task.user_time_s:8.3f}s   ({ratio:.3f}x)"
        )


def cmd_topologies(args: argparse.Namespace) -> int:
    """List the named machines in the topology registry.

    One row per machine: CPU count, socket structure, the socket tier's
    latencies, and the page-table placement its registry entry selects.
    Rows also land in the ``--json`` sink as ``topology`` records.
    """
    from repro.machine.topology import registry_rows

    rows = registry_rows()
    print(
        f"{'name':12s} {'cpus':>4s} {'sockets':>7s} {'level':>6s} "
        f"{'sk_fetch':>8s} {'sk_store':>8s} {'pagetables':12s} description"
    )
    for row in rows:
        level = "multi" if row["multilevel"] else "flat"
        fetch = row["socket_fetch_us"]
        store = row["socket_store_us"]
        print(
            f"{row['name']:12s} {row['cpus']:4d} {row['sockets']:7d} "
            f"{level:>6s} "
            f"{'-' if fetch is None else format(fetch, '.2f'):>8s} "
            f"{'-' if store is None else format(store, '.2f'):>8s} "
            f"{row['page_tables']:12s} {row['description']}"
        )
        args.sink.add({"t": "topology", **row})
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    """List the placement policies in the policy registry.

    One row per policy: name, typed parameter schema with defaults, and
    what the policy does.  These are the names ``RunSpec.policy`` and
    ``batch --policies`` accept; parameters are passed as
    ``name:key=value,key=value`` on the CLI or ``policy_params`` on a
    spec.  Rows also land in the ``--json`` sink as ``policy`` records.
    """
    from repro.analysis.frames import DataTable
    from repro.core.policies.registry import policy_registry_rows

    rows = policy_registry_rows()
    for row in rows:
        args.sink.add({"t": "policy", **row})
    if args.format == "json":
        import json as _json

        for row in rows:
            print(_json.dumps(row, sort_keys=True))
    else:
        print(DataTable(rows).to_markdown())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run one workload under a seeded fault-injection profile.

    The run executes with the protocol sanitizer attached; every
    injected fault's recovery re-validates the full directory.  The
    structured recovery summary prints as canonical JSON (same workload,
    profile and seed → byte-identical output) and also lands in the
    ``--json`` sink.  Exit code 2 signals a recovery that broke a
    protocol invariant.
    """
    from repro.faults import run_chaos
    from repro.machine.topology import resolve_machine

    workload = resolve_workload(args.workload, quick=args.quick)
    report = run_chaos(
        workload,
        profile_name=args.profile,
        seed=args.seed,
        n_processors=args.processors,
        sanitize=not args.no_sanitize,
        machine_config=resolve_machine(args.machine, args.processors),
    )
    args.sink.add({"t": "chaos_report", **report.as_dict()})
    print(report.to_json())
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Run a spec grid through the orchestrator, cached and resumable.

    ``--grid`` picks the sweep: the full Tables 3–4 matrix (default),
    the move-threshold ablation, a chaos seed fan, or a policy
    tournament (``--policies`` selects the entrants).  Results land in
    the on-disk cache (default ``.repro-cache/``), so re-running the
    same batch — or interrupting and resuming it — only simulates what
    is missing.  The last stdout line is the batch summary as one JSON
    object; ``--require-cache-ratio`` turns the summary into an exit
    code (1 when too little came from cache) for CI assertions.

    Execution is supervised: failing specs are retried with
    deterministic backoff (``--max-attempts``), hung workers are bounded
    by ``--timeout``, and a spec that exhausts its attempts is
    quarantined (exit 1) instead of sinking the grid — ``--strict``
    selects the first-failure-raises contract.  Every cached
    batch also appends a crash-safe journal beside the cache directory;
    after a hard kill, ``--resume`` rebuilds the batch from the journal
    and re-runs it, serving everything that completed from the cache.
    ``--results PATH`` writes the canonical results document (host-time
    free), which is byte-identical between an uninterrupted run and a
    crash-resumed one.  ``--harness-chaos PROFILE`` runs the batch under
    seeded orchestrator faults (worker kills, hangs, cache corruption)
    for resilience testing.
    """
    import json as _json
    import pathlib

    from repro.errors import SimulationError
    from repro.exp.batch import require_cache_ratio, resume_batch, run_batch
    from repro.exp.cache import DEFAULT_CACHE_DIR
    from repro.exp.journal import BatchJournal, journal_path_for
    from repro.exp.supervise import SupervisorPolicy
    from repro.obs.metrics import MetricsRegistry

    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    cache = _cache_from(args)

    chaos = None
    if args.harness_chaos is not None:
        from repro.faults.harness import make_harness_plan

        chaos = make_harness_plan(args.harness_chaos, seed=args.harness_seed)
    if args.strict:
        policy = SupervisorPolicy.strict()
    else:
        policy = SupervisorPolicy(
            max_attempts=args.max_attempts,
            timeout_s=args.timeout,
            seed=args.harness_seed,
            chaos=chaos,
        )

    registry = MetricsRegistry()
    progress = lambda message: print(message, file=sys.stderr)  # noqa: E731

    if args.resume:
        if cache is None:
            raise ConfigurationError(
                "batch --resume needs the result cache "
                "(it cannot be combined with --no-cache)"
            )
        journal_path = journal_path_for(cache.root)
        batch = resume_batch(
            journal_path,
            jobs=args.jobs,
            cache=cache,
            registry=registry,
            progress=progress,
            policy=policy,
        )
    else:
        specs = GRIDS[args.grid](args)
        journal = None
        if cache is not None and not args.no_journal:
            journal = BatchJournal(journal_path_for(cache.root))
        batch = run_batch(
            specs,
            jobs=args.jobs,
            cache=cache,
            registry=registry,
            progress=progress,
            policy=policy,
            journal=journal,
        )

    for row in batch.rows:
        args.sink.add(
            {
                "t": "batch_spec",
                "fingerprint": row.spec.fingerprint(),
                "label": row.spec.label,
                "kind": (
                    row.outcome.kind if row.outcome is not None
                    else "quarantined"
                ),
                "cached": row.cached,
            }
        )
    summary = batch.as_dict()
    args.sink.add({"t": "batch_summary", **summary})
    args.sink.extend(
        {**record, "t": "batch_metric"} for record in registry.as_records()
    )
    if args.results is not None:
        path = pathlib.Path(args.results)
        if path.parent != pathlib.Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(batch.results_json(), encoding="utf-8")
        print(f"wrote results document to {path}", file=sys.stderr)
    print(_json.dumps(summary, sort_keys=True))
    lost = batch.lost
    if lost:
        print(
            f"repro-numa batch: {len(lost)} spec(s) lost "
            f"(supervision bug): {', '.join(fp[:12] for fp in lost)}",
            file=sys.stderr,
        )
        return 1
    if batch.quarantined:
        detail = "; ".join(
            f"{fp[:12]}: {reason}"
            for fp, reason in sorted(batch.quarantined.items())[:5]
        )
        print(
            f"repro-numa batch: {len(batch.quarantined)} spec(s) "
            f"quarantined after {policy.max_attempts} attempts ({detail})",
            file=sys.stderr,
        )
        return 1
    if args.require_cache_ratio is not None:
        try:
            require_cache_ratio(batch, args.require_cache_ratio)
        except SimulationError as error:
            print(f"repro-numa batch: {error}", file=sys.stderr)
            return 1
    return 0


def _print_check_report(args: argparse.Namespace, report) -> int:
    """Shared output path for the check commands (lint/modelcheck/races).

    The report's flat records land in the ``--json`` sink regardless of
    format; ``--format`` then picks how stdout renders them: the
    report's own ``format()`` text (default), one canonical JSON object
    per record, or a markdown table via
    :class:`repro.analysis.frames.DataTable` — the same frame the
    analysis layer uses, so columns match the CSV/JSONL exporters.
    """
    import json as _json

    records = report.as_records()
    args.sink.extend(records)
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        for record in records:
            print(_json.dumps(record, sort_keys=True, default=str))
    elif fmt == "table":
        from repro.analysis.frames import DataTable

        print(DataTable.from_records(records).to_markdown())
    else:
        print(report.format())
    return report.exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro-specific static lint over the package sources.

    Runs the full rule set: the hygiene/protocol rules (RN001-RN007)
    plus the race-discipline rules (RN008-RN011) from
    :mod:`repro.check.races`.
    """
    # The docstring is `lint --help`, pinned byte for byte; all eleven
    # rules have since become rows of repro.check.lint.RULES.
    from repro.check import ALL_RULES, lint_paths

    report = lint_paths(args.paths or None, rules=ALL_RULES)
    return _print_check_report(args, report)


def cmd_modelcheck(args: argparse.Namespace) -> int:
    """Cross-check the live transition tables against the paper."""
    from repro.check import run_model_check
    from repro.machine.topology import resolve_machine

    topology = resolve_machine(args.machine).topology
    report = run_model_check(n_cpus=args.cpus, topology=topology)
    return _print_check_report(args, report)


def cmd_races(args: argparse.Namespace) -> int:
    """Race-check the protocol: static guard lint + dynamic detection.

    The static layer lints RN008-RN011 (shared-state mutation outside
    the inferred guard, unbalanced lock paths, MMU mutation without a
    paired shootdown, bus emission under a spin lock) and prints the
    inferred guard model.  The dynamic layer runs a workload under each
    ``--profiles`` entry with the lockset/happens-before detector
    attached (a clean tree reports zero races), then replays the seeded
    synthetic-race fixtures and asserts both are caught — proving the
    wiring, not just the absence of reports.  ``--static`` skips the
    dynamic layer for fast CI.  Exit 0 clean, 1 findings (2 reserved
    for usage errors).
    """
    from repro.check import run_race_check

    report = run_race_check(
        static=True,
        dynamic=not args.static,
        fixtures=not args.static and not args.skip_fixtures,
        profiles=tuple(args.profiles or ("none", "transient")),
        seed=args.seed,
        n_processors=args.processors,
        machine=args.machine,
    )
    return _print_check_report(args, report)


def cmd_report(args: argparse.Namespace) -> int:
    """Write the full reproduction report (cache-backed, provenance-footnoted).

    The report renders from the on-disk result cache: by default the
    required Tables 3–4 grid is first routed through the batch
    orchestrator (cached specs are served, the rest simulate), then the
    whole document — tables, α/β/γ fits, versus-plots — regenerates
    from the cache with every artifact footnoted by its contributing
    spec fingerprints.  ``--from-cache`` skips execution entirely
    (``executed == 0``; combine with ``--fill`` to simulate just the
    missing specs first), ``--missing`` lists uncached required specs
    instead of writing the report, and ``--require-cache-ratio`` turns
    the served/required ratio into an exit code for CI.  ``--json``
    receives the artifact manifest (fingerprints, document sha256).
    """
    import pathlib

    from repro.analysis.cachereport import (
        CacheDataset,
        missing_lines,
        report_missing_spec,
    )
    from repro.analysis.repro_report import (
        emit_tables,
        generate_cache_report,
    )
    from repro.exp.batch import run_batch
    from repro.exp.cache import DEFAULT_CACHE_DIR

    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    # The report's required grid *is* ``batch --grid table3``: the specs
    # a batch caches are the exact fingerprints looked up here.
    required = GRIDS["table3"](args)
    if args.missing:
        # Pure inspection: list what the cache cannot serve, run nothing.
        dataset = CacheDataset.load(args.cache_dir)
        missing = dataset.missing(required)
        for line in missing_lines(missing):
            print(line)
        unique_required = len({spec.fingerprint() for spec in required})
        print(
            f"{len(missing)} of {unique_required} required specs missing "
            f"from {args.cache_dir}"
        )
        args.sink.extend(map(report_missing_spec, missing))
        return 0

    def fill(specs) -> int:
        """Simulate *specs* into the cache; how many actually executed."""
        return run_batch(
            specs,
            jobs=args.jobs,
            cache=_cache_from(args),
            progress=lambda message: print(message, file=sys.stderr),
        ).executed

    executed = 0 if args.from_cache else fill(required)
    dataset = CacheDataset.load(args.cache_dir)
    missing = dataset.missing(required)
    if args.fill and missing:
        executed += fill(missing)
        dataset = CacheDataset.load(args.cache_dir)
    bundle = generate_cache_report(
        dataset,
        apps=args.apps,
        n_processors=args.processors,
        threshold=args.threshold,
        quick=args.quick,
        executed=executed,
    )
    out = pathlib.Path(args.out)
    out.write_text(bundle.document, encoding="utf-8")
    args.sink.extend(bundle.manifest_records())
    if args.tables:
        for path in emit_tables(bundle.join.evaluation, args.tables):
            args.sink.add({"t": "report_table_file", "path": str(path)})
            print(f"wrote {path}")
    print(
        f"wrote {out} (executed {executed}, "
        f"cache ratio {bundle.join.cache_ratio:.3f}, "
        f"sha256 {bundle.sha256[:12]})"
    )
    if (
        args.require_cache_ratio is not None
        and bundle.join.cache_ratio < args.require_cache_ratio
    ):
        print(
            f"repro-numa report: cache ratio {bundle.join.cache_ratio:.3f} "
            f"below required {args.require_cache_ratio:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the on-disk result cache (``ls``/``stats``/``gc``).

    ``ls`` lists every valid entry (fingerprint, kind, spec label) plus
    every skipped file with its reason; ``stats`` aggregates counts and
    bytes; ``gc`` removes *only* files the scanner already refuses to
    serve — by category (``--schema-mismatch``, ``--corrupt``,
    ``--foreign``, ``--tmp``), or as a dry run over all categories when
    no flag is given — so pruning can never change what a report would
    say.  ``--tmp`` prunes stale atomic-write leftovers from crashed
    runs, keeping any younger than ``--tmp-min-age`` (a live batch may
    still be writing them).
    """
    from repro.exp.cache import DEFAULT_CACHE_DIR, ResultCache

    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    cache = ResultCache(args.cache_dir)
    scan = cache.scan()
    if args.action == "ls":
        for entry in sorted(scan.entries, key=lambda e: e.fingerprint):
            print(
                f"{entry.fingerprint[:12]}  {entry.outcome.kind:5s}  "
                f"{entry.size_bytes:>8d}B  {entry.spec.label}"
            )
            args.sink.add(
                {
                    "t": "cache_entry",
                    "fingerprint": entry.fingerprint,
                    "kind": entry.outcome.kind,
                    "bytes": entry.size_bytes,
                    "label": entry.spec.label,
                }
            )
        for item in scan.skipped:
            print(f"{'-' * 12}  skip   [{item.reason}] {item.path.name}")
            args.sink.add(
                {
                    "t": "cache_skipped",
                    "path": str(item.path),
                    "reason": item.reason,
                    "detail": item.detail,
                }
            )
        print(
            f"{len(scan.entries)} entries, {len(scan.skipped)} skipped "
            f"in {cache.root}"
        )
        return 0
    if args.action == "stats":
        stats = cache.stats(scan)
        args.sink.add({"t": "cache_stats", **stats})
        print(f"cache {stats['root']} [{stats['schema']}]")
        print(f"  entries   {stats['entries']} ({stats['bytes']} bytes)")
        labels = {
            "kinds": "kind",
            "workloads": "workload",
            "policies": "policy",
            "skipped": "skipped",
        }
        for group, label in labels.items():
            for name, count in stats[group].items():
                print(f"  {label:9s} {name}: {count}")
        return 0
    # gc
    reasons = []
    if args.schema_mismatch:
        reasons.append("schema-mismatch")
    if args.corrupt:
        reasons.extend(["corrupt", "fingerprint-mismatch", "tmp"])
    if args.foreign:
        reasons.append("foreign")
    if args.tmp and "tmp" not in reasons:
        reasons.append("tmp")
    dry_run = not reasons
    if dry_run:
        reasons = [
            "schema-mismatch", "corrupt", "fingerprint-mismatch",
            "tmp", "foreign",
        ]
    # --tmp applies the stale-age guard; the legacy --corrupt bundle
    # (and the dry run) keeps pruning temp files unconditionally.
    tmp_min_age = args.tmp_min_age if args.tmp else 0.0
    removed = cache.gc(
        reasons, scan=scan, dry_run=dry_run, tmp_min_age_s=tmp_min_age
    )
    verb = "would remove" if dry_run else "removed"
    for item in removed:
        print(f"{verb} [{item.reason}] {item.path}")
        args.sink.add(
            {
                "t": "cache_gc",
                "path": str(item.path),
                "reason": item.reason,
                "removed": not dry_run,
            }
        )
    suffix = " (dry run; pass --schema-mismatch/--corrupt/--foreign/--tmp)" \
        if dry_run else ""
    print(f"{verb} {len(removed)} file(s){suffix}")
    return 0


def cmd_all(args: argparse.Namespace) -> None:
    """Everything: tables, figures, latencies, α check."""
    evaluation = _evaluation_from_args(args)
    _sink_evaluation(args, evaluation)
    print(format_table3(evaluation))
    print()
    print(format_table4(evaluation))
    print()
    print(format_measured_alpha(evaluation))
    print()
    cmd_tables12(args)
    cmd_figures(args)
    print()
    cmd_latency(args)


# -- the command table --------------------------------------------------------


@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call, as data."""

    flags: Tuple[str, ...]
    kwargs: Dict[str, object]

    def with_help(self, text: str) -> "Arg":
        """This argument under a command's own help sentence."""
        return Arg(self.flags, {**self.kwargs, "help": text})


def arg(*flags: str, **kwargs: object) -> Arg:
    """Record ``add_argument(*flags, **kwargs)`` for the command table."""
    return Arg(flags, kwargs)


def flag(name: str, help: str) -> Arg:
    """An on/off switch (``store_true``)."""
    return arg(name, action="store_true", help=help)


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler (whose docstring is its help) and the
    arguments it takes beyond :data:`GLOBAL_OPTIONS`, in display order."""

    name: str
    run: Callable[[argparse.Namespace], Optional[int]]
    args: Tuple[Arg, ...] = ()


#: Options accepted both before and after the subcommand.  The root
#: parser carries these defaults; the per-command copies use
#: ``SUPPRESS`` so they only override the namespace when actually given
#: on the command line.
GLOBAL_OPTIONS: Tuple[Arg, ...] = (
    arg(
        "--processors",
        type=int,
        default=7,
        help="simulated processors (paper's Table 4 used 7)",
    ),
    arg(
        "--threshold",
        type=int,
        default=4,
        help="move threshold (the paper's boot-time parameter, default 4)",
    ),
    flag("--quick", "use scaled-down workloads"),
    arg(
        "--json",
        metavar="PATH",
        help="also dump the command's data as JSON lines to PATH",
    ),
    arg(
        "--machine",
        metavar="NAME",
        default="ace",
        help="named machine from the topology registry (see the "
             "`topologies` command; default ace, the paper's machine; "
             "consumed by chaos, modelcheck, and races)",
    ),
    arg(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for batched sweeps "
             "(default 1: serial, in-process)",
    ),
    arg(
        "--cache-dir",
        metavar="PATH",
        help="serve/store sweep results in an on-disk cache at PATH "
             "(the batch command defaults to .repro-cache)",
    ),
)

# Arguments more than one command takes, defined once.  Where the
# commands word the help differently the shared record carries the
# flag, type and default and each command adds its sentence.
APPS = arg("--apps", nargs="*", help="applications to analyze")
THRESHOLDS = arg(
    "--thresholds",
    nargs="*",
    type=int,
    help="move thresholds to sweep (default 0 1 2 4 8 16)",
)
WORKLOAD = arg("workload")
PROFILE = arg("--profile", default="transient")
SEED = arg("--seed", type=int, default=0)
REQUIRE_CACHE_RATIO = arg(
    "--require-cache-ratio", type=float, metavar="RATIO"
)
CHECK_FORMAT = arg(
    "--format",
    choices=("text", "json", "table"),
    default="text",
    help="stdout rendering: classic text (default), one JSON "
         "object per record, or a markdown table",
)

#: Every subcommand, in ``--help`` order.  A new command is one entry.
COMMANDS: Tuple[Command, ...] = (
    Command(
        "table3", _evaluation_command(format_table3, "Regenerate Table 3.")
    ),
    Command(
        "table4", _evaluation_command(format_table4, "Regenerate Table 4.")
    ),
    Command("tables12", cmd_tables12),
    Command("figures", cmd_figures),
    Command("latency", cmd_latency),
    Command(
        "alpha",
        _evaluation_command(
            format_measured_alpha,
            "Model-recovered versus directly measured α.",
        ),
    ),
    Command("sweep", cmd_sweep, (APPS, THRESHOLDS)),
    Command("false-sharing", cmd_false_sharing),
    Command("optimal", cmd_optimal),
    Command("advise", cmd_advise, (APPS,)),
    Command("bus", cmd_bus),
    Command("speedup", cmd_speedup, (APPS,)),
    Command(
        "metrics",
        cmd_metrics,
        (
            WORKLOAD.with_help(
                "application to instrument (case-insensitive)"
            ),
            arg(
                "--sample-interval",
                type=int,
                default=32,
                help="scheduling rounds per telemetry sample (default 32)",
            ),
        ),
    ),
    Command(
        "chaos",
        cmd_chaos,
        (
            WORKLOAD.with_help(
                "application to run under faults (case-insensitive)"
            ),
            PROFILE.with_help(
                "fault profile: none, transient, frame-loss, storm "
                "(default transient)"
            ),
            SEED.with_help(
                "fault-plan RNG seed (default 0); same seed and "
                "profile give byte-identical summaries"
            ),
            flag(
                "--no-sanitize",
                "skip the protocol sanitizer (overhead measurement)",
            ),
        ),
    ),
    Command("topologies", cmd_topologies),
    Command(
        "policies",
        cmd_policies,
        (
            arg(
                "--format",
                choices=("table", "json"),
                default="table",
                help="stdout rendering: markdown table (default) or one "
                     "JSON object per policy",
            ),
        ),
    ),
    Command("mix", cmd_mix, (APPS,)),
    Command(
        "batch",
        cmd_batch,
        (
            APPS,
            THRESHOLDS,
            arg(
                "--grid",
                choices=tuple(GRIDS),
                default="table3",
                help="spec grid to run: the Tables 3-4 matrix (default), "
                     "the move-threshold ablation, a chaos seed fan, or "
                     "a policy tournament",
            ),
            arg(
                "--policies",
                nargs="*",
                metavar="NAME[:K=V,...]",
                help="tournament entrants, e.g. move-threshold "
                     "adaptive-threshold 'bandit:seed=7' (default: "
                     "move-threshold, adaptive-threshold, "
                     "bandwidth-aware, bandit; see 'repro-numa policies')",
            ),
            PROFILE.with_help(
                "fault profile for --grid chaos (default transient)"
            ),
            arg(
                "--seeds",
                nargs="*",
                type=int,
                help="fault-plan seeds for --grid chaos (default 0 1 2)",
            ),
            flag("--no-cache", "run without the on-disk result cache"),
            REQUIRE_CACHE_RATIO.with_help(
                "exit 1 unless at least RATIO of the unique specs "
                "came from the cache (CI resumability assertion)"
            ),
            flag(
                "--resume",
                "rebuild and re-run the last batch from the crash "
                "journal beside the cache directory (finished work "
                "is served from the cache)",
            ),
            arg(
                "--results",
                metavar="PATH",
                help="write the canonical results document (host-time "
                     "free; byte-identical across crash/resume) to PATH",
            ),
            arg(
                "--max-attempts",
                type=int,
                default=3,
                metavar="N",
                help="supervised attempts per spec before quarantine "
                     "(default 3; 1 disables retry)",
            ),
            arg(
                "--timeout",
                type=float,
                metavar="SECONDS",
                help="per-spec wall-clock timeout; an overdue worker is "
                     "recycled and the spec retried (default: none)",
            ),
            flag(
                "--strict",
                "fail fast: one attempt per spec, first "
                "failure aborts the batch (exit 2)",
            ),
            flag(
                "--no-journal",
                "skip the crash journal (the batch cannot be "
                "--resume'd after a hard kill)",
            ),
            arg(
                "--harness-chaos",
                metavar="PROFILE",
                help="run under seeded orchestrator faults: none, "
                     "worker-kill, worker-hang, cache-corrupt, mayhem "
                     "(resilience testing)",
            ),
            arg(
                "--harness-seed",
                type=int,
                default=0,
                metavar="N",
                help="seed for harness chaos and retry-backoff jitter "
                     "(default 0)",
            ),
        ),
    ),
    Command(
        "cache",
        cmd_cache,
        (
            arg(
                "action",
                choices=("ls", "stats", "gc"),
                help="list entries, aggregate statistics, or prune "
                     "unusable files",
            ),
            flag(
                "--schema-mismatch",
                "gc: remove entries written under an older cache "
                "schema",
            ),
            flag(
                "--corrupt",
                "gc: remove unparseable entries, fingerprint "
                "mismatches, and leftover temp files",
            ),
            flag(
                "--foreign",
                "gc: remove files that are not cache entries at all",
            ),
            flag(
                "--tmp",
                "gc: remove stale .tmp-* files left by crashed "
                "atomic writes",
            ),
            arg(
                "--tmp-min-age",
                type=float,
                default=60.0,
                metavar="SECONDS",
                help="gc --tmp: keep temp files younger than this (a "
                     "live batch may still be writing them; default 60)",
            ),
        ),
    ),
    Command(
        "lint",
        cmd_lint,
        (
            arg(
                "paths",
                nargs="*",
                help="files or directories to lint "
                     "(default: the installed repro package)",
            ),
            CHECK_FORMAT,
        ),
    ),
    Command(
        "modelcheck",
        cmd_modelcheck,
        (
            arg(
                "--cpus",
                type=int,
                default=3,
                help="abstract processors for reachability (default 3, "
                     "the smallest count with all owner relations)",
            ),
            CHECK_FORMAT,
        ),
    ),
    Command(
        "races",
        cmd_races,
        (
            CHECK_FORMAT,
            flag(
                "--static",
                "static layer only: RN008-RN011 lint + guard "
                "inference, no simulation (fast CI mode)",
            ),
            arg(
                "--profiles",
                nargs="*",
                help="fault profiles for the dynamic layer "
                     "(default: none transient)",
            ),
            SEED.with_help(
                "fault-plan RNG seed for the dynamic layer "
                "(default 0; same seed gives identical output)"
            ),
            flag(
                "--skip-fixtures",
                "skip the seeded synthetic-race fixtures "
                "(they otherwise run with the dynamic layer)",
            ),
        ),
    ),
    Command(
        "report",
        cmd_report,
        (
            APPS,
            flag(
                "--from-cache",
                "render purely from the result cache: nothing "
                "simulates, missing specs are footnoted",
            ),
            flag(
                "--fill",
                "with --from-cache: simulate just the missing "
                "required specs first, then render",
            ),
            flag(
                "--missing",
                "list required specs absent from the cache "
                "(fingerprint + label) instead of writing the report",
            ),
            arg(
                "--out",
                default="REPORT.md",
                metavar="PATH",
                help="report output path (default REPORT.md)",
            ),
            arg(
                "--tables",
                metavar="DIR",
                help="also emit table3/table4 as CSV and LaTeX into DIR",
            ),
            REQUIRE_CACHE_RATIO.with_help(
                "exit 1 unless at least RATIO of the required specs "
                "were served from the cache (CI assertion)"
            ),
        ),
    ),
    Command("all", cmd_all),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser: one loop over :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro-numa",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for option in GLOBAL_OPTIONS:
        parser.add_argument(*option.flags, **option.kwargs)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.run.__doc__)
        sub.set_defaults(func=command.run)
        for option in GLOBAL_OPTIONS:
            sub.add_argument(
                *option.flags,
                **{**option.kwargs, "default": argparse.SUPPRESS},
            )
        for argument in command.args:
            sub.add_argument(*argument.flags, **argument.kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.

    Exit codes are stable for CI use: 0 success, 1 a check command
    found violations, 2 a usage or simulation error (bad workload name,
    invalid configuration, protocol violation under ``REPRO_SANITIZE``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    args.sink = JsonSink()
    try:
        status = args.func(args) or 0
    except ReproError as error:
        print(f"repro-numa: error: {error}", file=sys.stderr)
        return 2
    if args.json:
        if not args.sink.records:
            # Commands without structured output still leave a marker so
            # downstream tooling can tell "ran, nothing to dump" from
            # "never ran".
            args.sink.add({"t": "meta", "command": args.command})
        lines = args.sink.write(args.json)
        print(f"wrote {lines} JSON records to {args.json}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
