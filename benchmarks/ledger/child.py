"""One fresh process of one workload: set up, measure, report one JSON line.

``run.py`` starts this file several times per run (closed loop, one
process at a time) and pools what the processes report, so a run's
readings range over interpreter start-ups as well as over reps.

``--mode timed`` measures end-to-end numbers with no tracing: imports,
spec lists and one discarded warm-up rep are the set-up, then reps run
for as long as another fits the time budget.  ``--mode traced`` runs one
rep bare and one under ``trace.Tracer`` wrappers and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LEDGER = Path(__file__).resolve().parent
SRC = LEDGER.parent.parent / "src"
OUT = LEDGER / "_out"
sys.path.insert(0, str(SRC))

from repro.analysis.cachereport import (  # noqa: E402
    CacheDataset,
    evaluation_from_dataset,
)
from repro.analysis.paper import TABLE_3  # noqa: E402
from repro.analysis.repro_report import generate_cache_report  # noqa: E402
from repro.check.races import attach_detector, detach_detector  # noqa: E402
from repro.check.sanitizer import attach_sanitizer  # noqa: E402
from repro.exp import batch  # noqa: E402
from repro.exp.cache import ResultCache  # noqa: E402
from repro.exp.journal import BatchJournal, journal_path_for  # noqa: E402
from repro.exp.spec import RunSpec  # noqa: E402
from repro.exp.supervise import SupervisorPolicy  # noqa: E402
from repro.obs.profiling import PhaseProfiler  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402
from repro.sim import harness  # noqa: E402
from repro.threads.spinlock import remove_lock_observer  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from trace import Tracer  # noqa: E402

#: Everything the ``observed`` workload attaches.
ALL_OBSERVERS = frozenset({"telemetry", "sanitizer", "races"})

#: The paper prints γ to two decimals; the reproduction sits 0.04 from it
#: at worst.  Beyond this the results document is wrong, not slow.
GAMMA_TOLERANCE = 0.05


def digest_of(*parts: object) -> str:
    """sha256 over the canonical JSON of *parts*."""
    text = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- engine workloads ---------------------------------------------------------


def run_spec(
    spec: RunSpec,
    observers: frozenset = frozenset(),
    profiler: Optional[PhaseProfiler] = None,
) -> Tuple[float, int, object]:
    """Build, run and collect *spec*: (CPU-s in the engine, ops, outputs).

    Observers are detached again before returning: the sanitizer and the
    race detector register in a process-wide lock-observer list.
    """
    telemetry = (
        Telemetry(profiler=profiler) if "telemetry" in observers else None
    )
    sim = spec.build(telemetry=telemetry)
    sanitizer = detector = None
    if "sanitizer" in observers:
        sanitizer = attach_sanitizer(
            sim.numa, sim.engine.bus, races="races" in observers
        )
        detector = sanitizer.races
    elif "races" in observers:
        detector = attach_detector(sim.numa, sim.engine.bus)
    try:
        started = time.process_time()
        rounds = sim.engine.run(sim.threads)
        if telemetry is not None:
            telemetry.finalize()
        cpu_s = time.process_time() - started
    finally:
        if sanitizer is not None:
            remove_lock_observer(sanitizer)
        if detector is not None:
            detach_detector(detector, sim.machine)
    result = harness.collect_result(sim, rounds)
    outputs = (
        result.as_dict(),
        sim.machine.tlb_counters(),
        sim.machine.topology_counters(),
    )
    return cpu_s, sim.engine.ops_executed, outputs


def engine_rep(
    specs: Sequence[RunSpec],
    observers: frozenset = frozenset(),
    profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, object]:
    """One rep: every spec built, run and collected, then digested."""
    gc.collect()
    cpu_s = 0.0
    ops = 0
    outputs = []
    started = time.perf_counter()
    for spec in specs:
        spec_cpu_s, spec_ops, spec_outputs = run_spec(spec, observers, profiler)
        cpu_s += spec_cpu_s
        ops += spec_ops
        outputs.append(spec_outputs)
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "work": ops,
        "operations": len(specs),
        "digest": digest_of(outputs),
    }


def timed_engine(args: argparse.Namespace) -> Dict[str, object]:
    """Set-up, then reps of an engine workload while the budget lasts.

    The warm-up rep runs the workload's own specs at ``--smoke`` sizes:
    enough to finish every lazy import and first-call cache, cheap enough
    that a run can afford many fresh processes — how fast a rep goes is
    mostly settled per process, so processes are what a run needs most.
    """
    specs = workloads.engine_specs(args.workload, args.seed, args.smoke)
    observed = args.workload == "observed"
    observers = ALL_OBSERVERS if observed else frozenset()
    engine_rep(
        workloads.engine_specs(args.workload, args.seed, smoke=True), observers
    )
    # Observing never perturbs: the observed reps must reproduce the
    # simulated results of a bare run of the same specs.
    reference = engine_rep(specs)["digest"] if observed else None
    setup_s = time.time() - args.spawned_at
    reps = repeat(args, lambda: engine_rep(specs, observers))
    reference = reference or reps[0]["digest"]
    mismatches = sum(rep["digest"] != reference for rep in reps)
    return {
        "setup_s": setup_s,
        "reps": reps,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": sum(rep["operations"] for rep in reps),
        "failed": mismatches,
        "digest": reference,
        "notes": [f"{mismatches} rep(s) off the reference digest"]
        if mismatches
        else [],
    }


def repeat(args: argparse.Namespace, rep) -> List[Dict[str, object]]:
    """Run *rep* once, then for as long as another fits the budget."""
    deadline = time.perf_counter() + args.budget
    reps = [rep()]
    while time.perf_counter() + reps[-1]["wall_s"] <= deadline:
        reps.append(rep())
    return reps


def traced_engine(args: argparse.Namespace) -> Dict[str, object]:
    """One bare rep, one rep under the wrappers; per-layer metrics."""
    specs = workloads.engine_specs(args.workload, args.seed, args.smoke)
    observed = args.workload == "observed"
    observers = ALL_OBSERVERS if observed else frozenset()
    bare = engine_rep(specs, observers)
    tracer, profiler, harvest = Tracer(), PhaseProfiler(), layers.Harvest()
    layers.install(tracer, profiler, harvest)
    try:
        traced = engine_rep(specs, observers, profiler)
    finally:
        tracer.uninstall()
    values = layers.read(tracer, profiler, harvest)
    values["trace.overhead_ratio"] = traced["wall_s"] / bare["wall_s"]
    failed = int(traced["digest"] != bare["digest"])
    if observed:
        # What each observer costs on its own, in engine CPU-seconds
        # against the same specs with nothing attached.
        alone = engine_rep(specs)["cpu_s"]
        for metric, attached in (
            ("obs.telemetry_cost_ratio", "telemetry"),
            ("check.sanitizer_cost_ratio", "sanitizer"),
            ("check.races_cost_ratio", "races"),
        ):
            cost = engine_rep(specs, frozenset({attached}))["cpu_s"]
            values[metric] = cost / alone
    return {
        "metrics": values,
        "spans": tracer.as_records(),
        "attempted": len(specs),
        "failed": failed,
        "digest": bare["digest"],
        "notes": ["tracing changed the simulated results"] if failed else [],
    }


# -- matrix workloads ---------------------------------------------------------


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A directory under ``_out/`` (inside the checkout), removed on exit."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class MatrixDir:
    """A scratch directory holding one cache and the files beside it."""

    def __init__(self, parent: Path, name: str) -> None:
        self.root = parent / name
        self.root.mkdir()
        self.cache = self.root / "cache"
        self.results = self.root / "results.json"
        self.report = self.root / "REPORT.md"

    def documents(self) -> Tuple[bytes, bytes]:
        """The results document and the report, as written."""
        return self.results.read_bytes(), self.report.read_bytes()

    def remove(self) -> None:
        shutil.rmtree(self.root)


def matrix_rep(
    args: argparse.Namespace, target: MatrixDir, smoke: Optional[bool] = None
) -> Dict[str, object]:
    """The three CLI commands against *target*, timed one by one."""
    smoke = args.smoke if smoke is None else smoke
    commands = workloads.matrix_commands(
        args.seed, target.cache, target.results, target.report, smoke=smoke
    )
    env = workloads.cli_environment(SRC)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_s = 0.0
    summaries: List[Dict[str, object]] = []
    notes: List[str] = []
    for command in commands:
        started = time.perf_counter()
        done = subprocess.run(
            command, env=env, cwd=target.root, capture_output=True, text=True
        )
        wall_s += time.perf_counter() - started
        if done.returncode != 0:
            notes.append(
                f"exit {done.returncode}: {' '.join(command[1:5])}: "
                f"{done.stderr.strip()[-300:]}"
            )
        elif "batch" in command:
            # The batch command's last stdout line is its JSON summary.
            summaries.append(json.loads(done.stdout.strip().splitlines()[-1]))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    for summary in summaries:
        for key in ("lost_specs", "quarantined"):
            if summary.get(key):
                notes.append(f"{summary[key]} {key}")
    specs = sum(int(summary.get("specs", 0)) for summary in summaries)
    return {
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime + after.ru_stime)
        - (before.ru_utime + before.ru_stime),
        "work": specs,
        # Every spec and every command is an operation that can fail.
        "operations": specs + len(commands),
        "executed": sum(int(s.get("executed", 0)) for s in summaries),
        "digest": digest_of(
            [s.get("results_sha256") for s in summaries],
            *(hashlib.sha256(doc).hexdigest() for doc in target.documents()),
        )
        if not notes
        else "",
        "notes": notes,
    }


def gamma_check(cache: Path, smoke: bool) -> List[str]:
    """The cached Table 3 must still sit on the paper's γ column."""
    if smoke:
        return []  # --quick sizes are not the paper's
    errors = model_errors(cache)
    if errors["gamma"] > GAMMA_TOLERANCE:
        return [f"gamma off the paper by {errors['gamma']:.3f}"]
    return []


def model_errors(cache: Path) -> Dict[str, float]:
    """max |x − x(paper)| over the eight applications, for α, β, γ."""
    join = evaluation_from_dataset(CacheDataset.load(cache))
    worst = {"alpha": 0.0, "beta": 0.0, "gamma": 0.0}
    for row in join.evaluation.rows:
        paper = TABLE_3[row.application]
        for name in worst:
            ours, theirs = getattr(row.params, name), getattr(paper, name)
            if ours is not None and theirs is not None:
                worst[name] = max(worst[name], abs(ours - theirs))
    return worst


def timed_matrix(args: argparse.Namespace) -> Dict[str, object]:
    """Cold: every rep fills a fresh cache.  Warm: reps reread one."""
    cold = args.workload == "matrix_cold"
    with scratch_dir(f"{args.workload}-") as scratch:
        notes: List[str] = []
        if cold:
            # Discarded warm-up: the same three commands at --quick
            # sizes (byte-compiles the package, spawns a pool once).
            warm_up = MatrixDir(scratch, "warmup")
            notes += matrix_rep(args, warm_up, smoke=True)["notes"]
            reference = None
        else:
            filled = MatrixDir(scratch, "filled")
            fill = matrix_rep(args, filled)
            notes += fill["notes"] + gamma_check(filled.cache, args.smoke)
            reference = fill["digest"]
        setup_s = time.time() - args.spawned_at

        numbers = itertools.count(1)

        def rep() -> Dict[str, object]:
            if not cold:
                return matrix_rep(args, filled)
            fresh = MatrixDir(scratch, f"cold{next(numbers)}")
            measured = matrix_rep(args, fresh)
            if not measured["notes"]:
                measured["notes"] += gamma_check(fresh.cache, args.smoke)
            fresh.remove()
            return measured

        reps = repeat(args, rep)
        reference = reference or reps[0]["digest"]
        for index, measured in enumerate(reps):
            notes += measured.pop("notes")
            if measured["digest"] != reference:
                notes.append(f"rep {index}: documents differ from reference")
            if cold and measured["executed"] == 0:
                notes.append(f"rep {index}: cold rep executed nothing")
            if not cold and measured["executed"] != 0:
                notes.append(f"rep {index}: warm rep executed specs")
        rusage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {
            "setup_s": setup_s,
            "reps": reps,
            "peak_rss_kb": rusage.ru_maxrss,
            "attempted": sum(rep["operations"] for rep in reps),
            "failed": len(notes),
            "digest": reference,
            "notes": notes,
        }


def run_grids(
    grids: Sequence[Sequence[RunSpec]], cache_dir: Path, jobs: int
) -> List[batch.BatchResult]:
    """The two batches of a matrix rep in-process, as the CLI runs them."""
    cache = ResultCache(cache_dir)
    return [
        batch.run_batch(
            specs,
            jobs=jobs,
            cache=cache,
            policy=SupervisorPolicy(),
            journal=BatchJournal(journal_path_for(cache.root)),
        )
        for specs in grids
    ]


def matrix_in_process(
    grids: Sequence[Sequence[RunSpec]],
    cache_dir: Path,
    smoke: bool,
    tracer: Optional[Tracer] = None,
) -> Tuple[float, List[batch.BatchResult], str]:
    """Serial batches, dataset load and report render: (wall, results, report)."""
    tracer = tracer or Tracer()
    started = time.perf_counter()
    with tracer.span("exp.run_batch"):
        results = run_grids(grids, cache_dir, jobs=1)
    with tracer.span("analysis.dataset_load"):
        dataset = CacheDataset.load(cache_dir)
    with tracer.span("analysis.report_render"):
        document = generate_cache_report(dataset, quick=smoke).document
    return time.perf_counter() - started, results, document


def median_wall(command: Sequence[str], env: Dict[str, str], runs: int = 3) -> float:
    """Median wall-clock of *command* over a few runs."""
    walls = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def traced_matrix(args: argparse.Namespace) -> Dict[str, object]:
    """The matrix rep in-process, bare then traced, plus pool and CLI costs."""
    cold = args.workload == "matrix_cold"
    grids = workloads.matrix_grids(args.seed, args.smoke)
    env = workloads.cli_environment(SRC)
    with scratch_dir(f"{args.workload}-traced-") as scratch:
        bare_dir, traced_dir = scratch / "bare", scratch / "traced"
        notes: List[str] = []
        if not cold:
            run_grids(grids, bare_dir, jobs=workloads.JOBS)
            traced_dir = bare_dir
        bare_wall, bare_results, bare_document = matrix_in_process(
            grids, bare_dir, args.smoke
        )

        tracer, profiler, harvest = Tracer(), PhaseProfiler(), layers.Harvest()
        layers.install(tracer, profiler, harvest)
        try:
            traced_wall, results, document = matrix_in_process(
                grids, traced_dir, args.smoke, tracer
            )
        finally:
            tracer.uninstall()
        values = layers.read(tracer, profiler, harvest)
        values["trace.overhead_ratio"] = traced_wall / bare_wall
        if document != bare_document:
            notes.append("tracing changed the report")

        unique = sum(result.unique for result in results)
        values["exp.cache_hit_ratio"] = (
            sum(result.cache_hits for result in results) / unique
        )
        values["exp.retries"] = sum(r.supervision.retries for r in results)
        values["exp.quarantined"] = sum(len(r.quarantined) for r in results)
        values["exp.lost"] = sum(len(r.lost) for r in results)
        values["exp.cache_bytes"] = sum(
            path.stat().st_size for path in traced_dir.rglob("*.json")
        )
        values["analysis.report_bytes"] = len(document.encode("utf-8"))
        for name, error in model_errors(traced_dir).items():
            values[f"analysis.{name}_max_abs_err"] = error
        if values["exp.quarantined"] or values["exp.lost"]:
            notes.append("traced batch quarantined or lost specs")

        if cold:
            # The same batches through the pool: what fan-out buys, and
            # what crosses the process boundary to get it.
            started = time.perf_counter()
            pooled = run_grids(grids, scratch / "pooled", jobs=workloads.JOBS)
            pooled_wall = time.perf_counter() - started
            serial_wall = sum(result.wall_s for result in bare_results)
            values["exp.pool_efficiency"] = serial_wall / (
                workloads.JOBS * pooled_wall
            )
            values["exp.transport_bytes"] = sum(
                len(pickle.dumps(row.spec.key()))
                + len(pickle.dumps(row.outcome.as_dict()))
                for result in pooled
                for row in result.rows
                if not row.cached and row.outcome is not None
            )

        # The CLI's own share: interpreter + import, and what a warm
        # batch costs as a command over the same batch as a call.
        python = [sys.executable, "-c"]
        values["cli.import_s"] = median_wall(
            python + ["import repro.cli"], env
        ) - median_wall(python + ["pass"], env)
        commands = workloads.matrix_commands(
            args.seed, bare_dir, scratch / "r.json", scratch / "R.md",
            smoke=args.smoke,
        )
        values["cli.commands_spawned"] = len(commands)
        started = time.perf_counter()
        run_grids(grids[:1], bare_dir, jobs=workloads.JOBS)
        in_process = time.perf_counter() - started
        values["cli.overhead_s"] = median_wall(commands[0], env) - in_process

        return {
            "metrics": values,
            "spans": tracer.as_records(),
            "attempted": sum(len(result.rows) for result in results) + 1,
            "failed": len(notes),
            "digest": digest_of([r.results_sha256 for r in results], document),
            "notes": notes,
        }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=3.0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    engine = args.workload in workloads.ENGINE_WORKLOADS
    if args.mode == "timed":
        result = timed_engine(args) if engine else timed_matrix(args)
    else:
        result = traced_engine(args) if engine else traced_matrix(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
