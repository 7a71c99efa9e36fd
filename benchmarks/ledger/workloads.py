"""The six workloads: what each runs, made from a seed.

Everything here goes through the declarative front door —
``RunSpec(...)`` for the engine workloads, ``repro.cli batch|report``
command lines (and the same grids in-process) for the matrix workloads.
Sizes are a third of the issue's starting points: the benchmark contract
caps a whole run (three fresh processes, each with a warm-up rep, plus
the timed reps) at well under a minute, so a rep is ~1.2 s on the 2-core
reference host instead of ~3.5 s.  The shape each workload was chosen for
(TLB hit ratio, faults per op, observer load, page-table walks vs.
updates) is unchanged by the scaling; ``test_ledger.py`` and the traced
run check it.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exp.grid import (
    DEFAULT_TOURNAMENT_POLICIES,
    flatten,
    policy_tournament,
    table3_grid,
)
from repro.exp.spec import RunSpec
from repro.workloads import TABLE_3_WORKLOADS

#: Pool workers wherever a pool is used.
JOBS = min(2, os.cpu_count() or 1)

#: Seeds other than 0 move every size by at most this share, so a change
#: cannot be fitted to one instance while wall-clock per rep stays
#: comparable across seeds (the spread across seeds has to stay inside a
#: third of the 10 % bound).
JITTER = 0.01

#: ``--smoke`` divides every size by this (self-tests only).
SMOKE_DIVISOR = 20

ENGINE_WORKLOADS = ("refstream", "faultstorm", "observed", "topology")
MATRIX_WORKLOADS = ("matrix_cold", "matrix_warm")
WORKLOADS = ENGINE_WORKLOADS + MATRIX_WORKLOADS

ALL_APPS = tuple(TABLE_3_WORKLOADS)


class Sizer:
    """Turns a nominal size into this run's size (seed jitter, smoke)."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self._rng = random.Random(f"ledger:{workload}:{seed}")
        self._seed = seed
        self._smoke = smoke

    def __call__(self, nominal: int, floor: int = 1) -> int:
        size = nominal // SMOKE_DIVISOR if self._smoke else nominal
        if self._seed != 0:
            size = round(size * (1.0 + JITTER * (2.0 * self._rng.random() - 1.0)))
        return max(floor, size)


def engine_specs(workload: str, seed: int, smoke: bool = False) -> List[RunSpec]:
    """The specs one rep of an engine workload builds, runs and collects."""
    size = Sizer(workload, seed, smoke)
    if workload == "refstream":
        # Nearly every reference hits the software TLB: engine dispatch,
        # TLB lookup and op generation do the work, vm/core almost none.
        return [
            RunSpec(
                "ParMult",
                {"total_mults": size(400_000), "chunk_mults": 2},
                policy="move-threshold",
                threshold=4,
                n_processors=4,
            ),
            RunSpec(
                "Gfetch",
                {
                    "total_fetches": size(1_400_000),
                    "buffer_pages": 8,
                    "chunk_fetches": 5,
                },
                policy="move-threshold",
                threshold=4,
                n_processors=4,
            ),
            RunSpec(
                "Primes3",
                {"limit": size(660_000, floor=100)},
                policy="move-threshold",
                threshold=4,
                n_processors=4,
            ),
        ]
    if workload == "faultstorm":
        # The ping-pong the move threshold exists to stop: policies that
        # never pin, so writably shared pages fault on nearly every op.
        return [
            RunSpec(
                "ParMult",
                {"total_mults": size(20_000), "chunk_mults": 2},
                policy="all-local",
                n_processors=4,
            ),
            RunSpec(
                "PlyTrace",
                {"n_polygons": size(2_000), "padded_framebuffer": False},
                policy="migration-only",
                n_processors=7,
            ),
            RunSpec(
                "Primes3",
                {"limit": size(130_000, floor=100)},
                policy="all-local",
                n_processors=7,
            ),
        ]
    if workload == "observed":
        # Same engine, every observer attached (see child.py): one quiet
        # spec, one fault-heavy spec, one mixed.
        return [
            RunSpec(
                "ParMult",
                {"total_mults": size(160_000), "chunk_mults": 2},
                policy="move-threshold",
                threshold=4,
                n_processors=4,
            ),
            RunSpec(
                "ParMult",
                {"total_mults": size(7_000), "chunk_mults": 2},
                policy="all-local",
                n_processors=4,
            ),
            RunSpec(
                "PlyTrace",
                {"n_polygons": size(2_000), "padded_framebuffer": False},
                policy="move-threshold",
                threshold=4,
                n_processors=4,
            ),
        ]
    if workload == "topology":
        # Both page-table placements on the 4-socket machine, over one
        # churning spec (update-dominated), one that goes quiet after
        # pinning (walk-dominated) and one in between.
        apps: Sequence[Tuple[str, Dict[str, object], str]] = (
            ("FFT", {"size": 32 if smoke else 256}, "move-threshold"),
            ("Primes3", {"limit": size(130_000, floor=100)}, "migration-only"),
            (
                "ParMult",
                {"total_mults": size(160_000), "chunk_mults": 2},
                "move-threshold",
            ),
        )
        return [
            RunSpec(
                app,
                params,
                policy=policy,
                threshold=4,
                machine_name="4socket32",
                n_threads=8,
                page_tables=placement,
            )
            for placement in ("centralized", "replicated")
            for app, params, policy in apps
        ]
    raise ValueError(f"not an engine workload: {workload!r}")


def tournament_policies(seed: int) -> List[Tuple[str, tuple]]:
    """The tournament's entrants; the seed reseeds the bandit."""
    if seed == 0:
        return list(DEFAULT_TOURNAMENT_POLICIES)
    return [
        (name, (("seed", seed),) if name == "bandit" else params)
        for name, params in DEFAULT_TOURNAMENT_POLICIES
    ]


def matrix_grids(seed: int, smoke: bool = False) -> List[List[RunSpec]]:
    """The two batches of a matrix rep, as ``run_batch`` takes them."""
    return [
        flatten(table3_grid(quick=smoke)),
        flatten(
            policy_tournament(
                apps=list(ALL_APPS),
                policies=tournament_policies(seed),
                quick=smoke,
            )
        ),
    ]


def cli_command(*arguments: str, smoke: bool = False) -> List[str]:
    """``python -m repro.cli …`` as a user would type it."""
    head = [sys.executable, "-m", "repro.cli"]
    return head + (["--quick"] if smoke else []) + list(arguments)


def matrix_commands(
    seed: int,
    cache_dir: Path,
    results: Path,
    report: Path,
    smoke: bool = False,
) -> List[List[str]]:
    """The three commands of a matrix rep: two batches, then the report."""
    policies = [
        name + (":" + ",".join(f"{k}={v}" for k, v in params) if params else "")
        for name, params in tournament_policies(seed)
    ]
    cache = ["--jobs", str(JOBS), "--cache-dir", str(cache_dir)]
    return [
        cli_command(
            "batch", "--grid", "table3", *cache, "--results", str(results),
            smoke=smoke,
        ),
        cli_command(
            "batch", "--grid", "tournament", "--apps", *ALL_APPS,
            "--policies", *policies, *cache,
            smoke=smoke,
        ),
        cli_command(
            "report", "--from-cache", "--cache-dir", str(cache_dir),
            "--out", str(report),
            smoke=smoke,
        ),
    ]


def cli_environment(src: Path) -> Dict[str, str]:
    """The environment CLI children run in: the checkout's ``src`` first."""
    env = dict(os.environ)
    inherited: Optional[str] = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + inherited if inherited else "")
    return env
