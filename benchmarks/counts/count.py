"""Exact interpreter work per engine op, attributed by source file.

    python benchmarks/counts/count.py refstream [--seed N] [--json]

Builds the ledger's ``--smoke`` specs for one engine workload (read
from ``benchmarks/ledger/workloads.py``, never changed) and runs each
under ``sys.settrace`` with opcode events and ``sys.setprofile``,
around ``Engine.run`` only.  It prints, per op the engine executed, the
bytecodes, Python calls (frame entries, generator resumptions
included) and C calls, attributed by the ``co_filename`` of the frame
that executes or makes them.  ``observed`` attaches telemetry, the
sanitizer and its race detector the way the ledger's ``child.py``
does.  The counts are exact: two runs of one tree on one CPython
version read the same to the unit, so a change to the engine's hot
path can be sized before and after without host time.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
for path in (SRC, ROOT / "benchmarks" / "ledger"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.check.sanitizer import attach_sanitizer  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402

import workloads  # noqa: E402

KINDS = ("bytecodes", "py_calls", "c_calls")


class WorkCounter:
    """Bytecodes, Python calls and C calls per source file."""

    def __init__(self) -> None:
        self.counts: Dict[str, Counter] = {kind: Counter() for kind in KINDS}

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        return self._local

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.counts["bytecodes"][frame.f_code.co_filename] += 1
        return self._local

    def _profile(self, frame, event, arg):
        if event == "call":
            self.counts["py_calls"][frame.f_code.co_filename] += 1
        elif event == "c_call" and frame.f_code.co_filename != __file__:
            # Setting and clearing the hooks are this file's own C calls.
            self.counts["c_calls"][frame.f_code.co_filename] += 1

    def run(self, engine, threads) -> int:
        """``engine.run(threads)`` with every frame it enters counted.

        The cyclic collector is run before and kept off during the run, so
        no finalizer of earlier garbage lands in the counts.
        """
        gc.collect()
        gc.disable()
        sys.setprofile(self._profile)
        sys.settrace(self._global)
        try:
            return engine.run(threads)
        finally:
            sys.settrace(None)
            sys.setprofile(None)
            gc.enable()


def layer_of(filename: str) -> str:
    """A source file as a short name: ``repro/sim/engine.py``, or the
    file name for anything outside ``src/`` (the standard library)."""
    path = Path(filename)
    try:
        return path.resolve().relative_to(SRC).as_posix()
    except ValueError:
        return path.name


def count(workload: str, seed: int = 0) -> Dict[str, object]:
    """Run *workload*'s smoke specs counted; totals and per-file counts."""
    counter = WorkCounter()
    ops = 0
    observed = workload == "observed"
    for spec in workloads.engine_specs(workload, seed, smoke=True):
        telemetry = Telemetry() if observed else None
        sim = spec.build(telemetry=telemetry)
        if observed:
            attach_sanitizer(sim.numa, sim.engine.bus, races=True)
        counter.run(sim.engine, sim.threads)
        ops += sim.engine.ops_executed
    by_layer: Dict[str, Dict[str, int]] = {}
    for kind, counts in counter.counts.items():
        for filename, n in counts.items():
            row = by_layer.setdefault(layer_of(filename), dict.fromkeys(KINDS, 0))
            row[kind] += n
    totals = {kind: sum(row[kind] for row in by_layer.values()) for kind in KINDS}
    return {"workload": workload, "seed": seed, "ops": ops,
            "totals": totals, "layers": by_layer}


def render(result: Dict[str, object]) -> str:
    """A fixed-width table: one row per file, heaviest first, then the total."""
    ops = result["ops"]
    lines = [
        f"{result['workload']} seed {result['seed']}: {ops} ops "
        f"(CPython {sys.version.split()[0]}), per op:",
        f"{'file':<36} {'bytecodes':>10} {'py_calls':>9} {'c_calls':>8}",
    ]
    rows = sorted(result["layers"].items(), key=lambda item: -item[1]["bytecodes"])
    for name, row in rows + [("total", result["totals"])]:
        lines.append(
            f"{name:<36} {row['bytecodes'] / ops:>10.2f} "
            f"{row['py_calls'] / ops:>9.2f} {row['c_calls'] / ops:>8.2f}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.ENGINE_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="print the counts as one JSON object"
    )
    args = parser.parse_args(argv)
    result = count(args.workload, args.seed)
    print(json.dumps(result, sort_keys=True) if args.json else render(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
