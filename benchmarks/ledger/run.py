#!/usr/bin/env python3
"""The performance ledger: one benchmark for the whole simulator.

    python benchmarks/ledger/run.py [--seed N]          every workload, untraced
                                                        then traced; writes _out/
    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
                                                        one run, one JSON result line
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --record            also append the trajectory

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; see ``README.md`` beside this file for what each
workload and metric is for.  Each run measures in fresh child processes
(``child.py``), one at a time, and pools what they measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
OUT = LEDGER / "_out"
TRAJECTORY = LEDGER / "results" / "trajectory.jsonl"

sys.path.insert(0, str(LEDGER))

import compare as comparison  # noqa: E402

#: Fresh processes per untraced run.  How fast a rep goes is mostly
#: settled per process (reps inside one agree to ~1 %, processes differ
#: by ~5 %), so engine workloads spend their budget on processes, one rep
#: or two in each.  A matrix rep is itself three fresh CLI processes and
#: their pool workers, and its set-up is dear (``matrix_warm`` fills a
#: cache, ~7 s), so those get as few as the run-time cap leaves room for.
PROCESSES = {"matrix_cold": 3, "matrix_warm": 2}
DEFAULT_PROCESSES = 6

#: The contract gives a run 180 s; children still alive by then are killed.
RUN_DEADLINE_S = 170.0

RESULT_SCHEMA = "repro-ledger/v1"


def load_benchmark() -> Dict[str, object]:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_program() -> None:
    """Refuse to run where there is no simulator to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no simulator under {ROOT / 'src'}; nothing to measure")


def run_child(
    workload: str, mode: str, seed: int, budget: float, smoke: bool,
    deadline: float,
) -> Dict[str, object]:
    """One fresh ``child.py`` process; its one-line JSON report.

    The child leads its own process group, so that if it outlives
    *deadline* it can be killed together with whatever it started.
    """
    command = [
        sys.executable,
        str(LEDGER / "child.py"),
        "--workload", workload,
        "--mode", mode,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--spawned-at", repr(time.time()),
    ] + (["--smoke"] if smoke else [])
    # One hash seed for every process below this one: string-keyed dict
    # and set layouts then repeat from run to run instead of adding noise.
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"ledger: {workload} ({mode}) child overran the run deadline")
    if child.returncode != 0:
        sys.exit(f"ledger: {workload} ({mode}) child exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, smoke: bool = False
) -> Dict[str, object]:
    """An untraced run: the end-to-end samples of a few fresh processes."""
    processes = PROCESSES.get(workload, DEFAULT_PROCESSES)
    deadline = time.time() + RUN_DEADLINE_S
    children = [
        run_child(workload, "timed", seed, seconds / processes, smoke, deadline)
        for _ in range(processes)
    ]
    reps = [rep for child in children for rep in child["reps"]]
    notes = [note for child in children for note in child["notes"]]
    failed = sum(child["failed"] for child in children)
    if len({child["digest"] for child in children}) != 1:
        failed += 1
        notes.append("processes disagree on the simulated results")
    return {
        "samples": {
            "wall_s": [rep["wall_s"] for rep in reps],
            "work_per_cpu_s": [rep["work"] / rep["cpu_s"] for rep in reps],
            "peak_rss_mb": [child["peak_rss_kb"] / 1024 for child in children],
            "setup_s": [child["setup_s"] for child in children],
        },
        "attempted": sum(child["attempted"] for child in children),
        "failed": failed,
        "digest": children[0]["digest"],
        "notes": notes,
    }


#: Metrics sampled once per rep; the others are sampled once per process.
PER_REP = ("wall_s", "work_per_cpu_s")


def reading(metric: Dict[str, object], samples: Sequence[float]) -> float:
    """The value a run reports for *metric* from its samples.

    Every rep of a run does identical, deterministic work, so whatever a
    rep takes beyond the fastest one is the host interfering, and on the
    reference host that interference comes in bursts of +30 % lasting
    minutes.  Per-rep metrics therefore report the *best* rep (over ten
    seeds its spread was 1.0 % where the median's was 4.9 %, and 7.5 %
    against 34 % during a burst); the median and spread of all reps are
    printed and stored beside it.  Per-process metrics report the median.
    """
    if metric["name"] in PER_REP:
        return min(samples) if metric["better"] == "lower" else max(samples)
    return statistics.median(samples)


def readings(
    benchmark: Dict[str, object], samples: Dict[str, List[float]]
) -> Dict[str, float]:
    """Every end-to-end metric's reported value."""
    return {
        metric["name"]: reading(metric, samples[metric["name"]])
        for metric in benchmark["end_to_end"]
    }


def contract_line(
    benchmark: Dict[str, object], section: str, values: Dict[str, float],
    attempted: int, failed: int,
) -> str:
    """The one-object result line the benchmark contract asks for."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric["name"]: {
                    "value": values[metric["name"]],
                    "unit": metric["unit"],
                }
                for metric in benchmark[section]
            },
        }
    )


def print_metrics(
    benchmark: Dict[str, object], section: str, workload: str,
    values: Dict[str, float], samples: Optional[Dict[str, List[float]]] = None,
) -> None:
    """Every metric of *section* by name, with its unit."""
    for metric in benchmark[section]:
        name = metric["name"]
        note = ""
        if samples is not None and name in PER_REP:
            note = (
                f"  (best of {len(samples[name])} reps; median "
                f"{statistics.median(samples[name]):.6g}, spread "
                f"{comparison.spread(samples[name]):.1%})"
            )
        elif samples is not None:
            note = f"  (median of {len(samples[name])} processes)"
        print(f"{workload:<12s} {name:<40s} {values[name]:>16.6g} {metric['unit']}{note}")


def trace(workload: str, seed: int, smoke: bool = False) -> Dict[str, object]:
    """A traced run: one process, one bare rep and one under the wrappers."""
    return run_child(
        workload, "traced", seed, 0.0, smoke, time.time() + RUN_DEADLINE_S
    )


def single_run(args: argparse.Namespace) -> int:
    """``--workload W --seed N --seconds S --trace T``: the contract's run."""
    benchmark = load_benchmark()
    if args.trace:
        traced = trace(args.workload, args.seed, args.smoke)
        values, section = traced["metrics"], "per_layer"
        report, samples = traced, None
    else:
        report = measure(args.workload, args.seed, args.seconds, args.smoke)
        samples, section = report["samples"], "end_to_end"
        values = readings(benchmark, samples)
    print_metrics(benchmark, section, args.workload, values, samples)
    for note in report["notes"]:
        print(f"{args.workload}: FAILED CHECK: {note}")
    print(
        contract_line(
            benchmark, section, values, report["attempted"], report["failed"]
        )
    )
    return 1 if report["failed"] else 0


def host_facts() -> Dict[str, object]:
    """What a trajectory line is keyed by."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def full_run(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced; one result file."""
    benchmark = load_benchmark()
    units = {
        metric["name"]: metric["unit"]
        for section in ("end_to_end", "per_layer")
        for metric in benchmark[section]
    }
    document: Dict[str, object] = {
        "schema": RESULT_SCHEMA,
        **host_facts(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    failed = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        timed = measure(workload, args.seed, args.seconds, args.smoke)
        values = readings(benchmark, timed["samples"])
        print_metrics(benchmark, "end_to_end", workload, values, timed["samples"])
        traced = trace(workload, args.seed, args.smoke)
        print_metrics(benchmark, "per_layer", workload, traced["metrics"])
        notes = timed["notes"] + traced["notes"]
        for note in notes:
            print(f"{workload}: FAILED CHECK: {note}")
        print(
            f"{workload:<12s} failed {timed['failed'] + traced['failed']} of "
            f"{timed['attempted'] + traced['attempted']} attempted"
        )
        failed += timed["failed"] + traced["failed"]
        document["workloads"][workload] = {
            "end_to_end": {
                name: {"value": values[name], "unit": units[name], "samples": s}
                for name, s in timed["samples"].items()
            },
            "per_layer": {
                name: {"value": value, "unit": units[name]}
                for name, value in traced["metrics"].items()
            },
            "spans": traced["spans"],
            "digest": timed["digest"],
            "traced_digest": traced["digest"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "notes": notes,
        }
    OUT.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT / f"ledger-seed{args.seed}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    if args.record:
        record = {key: document[key] for key in document if key != "workloads"}
        record["when"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        record["end_to_end"] = {
            workload: {
                name: entry["value"] for name, entry in result["end_to_end"].items()
            }
            for workload, result in document["workloads"].items()
        }
        record["failed"] = failed
        TRAJECTORY.parent.mkdir(exist_ok=True)
        with open(TRAJECTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended {TRAJECTORY}")
    return 1 if failed else 0


def compare_files(paths: Sequence[str]) -> int:
    """``--compare A.json B.json``: one row per (metric, workload)."""
    before, after = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in paths
    )
    lines, regressed = comparison.compare(load_benchmark(), before, after)
    print("\n".join(lines))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed reps per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--record", action="store_true",
                        help="append this run to results/trajectory.jsonl")
    parser.add_argument("--out", help="result file (default under _out/)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(args.compare)
    require_program()
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.workload:
        return single_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
