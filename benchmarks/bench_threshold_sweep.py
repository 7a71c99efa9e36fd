"""Ablation A1 — the move threshold (the policy's one parameter).

Section 4.3: a placement strategy "should avoid pinning a page in global
memory on the basis of transient behavior" but also "avoid moving a page
repeatedly from one local memory to another before realizing that it
should be pinned".  The sweep shows that trade-off: low thresholds pin
everything early (less copying, more global references for pages that
would have settled); high thresholds let writably-shared pages thrash.
The paper's default of 4 sits in the flat middle for every application —
which is why a simple policy suffices.
"""

from __future__ import annotations

import json
from typing import Dict, List

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import run_once
from repro.workloads.handoff import Handoff

from conftest import repro_numa, save_artifact

THRESHOLDS = [0, 1, 2, 4, 8, 16, 64]


@pytest.fixture(scope="module")
def sweep_cache(tmp_path_factory) -> str:
    """The ``--cache-dir`` ``sweep`` fills and ``batch --grid sweep`` reads."""
    return str(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def sweep(sweep_cache) -> Dict[str, List[Dict[str, object]]]:
    """``sweep``'s points per application (Primes3 and IMatMult, the
    command's defaults), in threshold order; its stdout is A1."""
    stdout, records = repro_numa(
        "sweep", "--thresholds", *map(str, THRESHOLDS),
        "--cache-dir", sweep_cache,
    )
    save_artifact("sweep.txt", stdout)
    points: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        points.setdefault(record["application"], []).append(record)
    return points


def end_point_syncs(name: str, cache: str, tmp_path) -> List[int]:
    """Sync counts at the sweep's lowest and highest threshold.

    ``sweep_point`` records carry no sync count; the results document of
    the same grid does, and ``batch`` serves it from what ``sweep`` cached.
    """
    results = tmp_path / "results.json"
    _, records = repro_numa(
        "batch", "--grid", "sweep", "--apps", name,
        "--thresholds", str(THRESHOLDS[0]), str(THRESHOLDS[-1]),
        "--cache-dir", cache, "--results", str(results),
    )
    specs = [r for r in records if r["t"] == "batch_spec"]
    assert all(spec["cached"] for spec in specs), "sweep re-simulated"
    document = json.loads(results.read_text())["results"]
    # Entrants come first, in threshold order; the Tlocal baseline last.
    return [
        document[spec["fingerprint"]]["result"]["stats"]["syncs"]
        for spec in specs[:2]
    ]


@pytest.mark.parametrize("name", ["Primes3", "IMatMult"])
def test_threshold_sweep(sweep, sweep_cache, tmp_path, name):
    points = sweep[name]
    assert [p["threshold"] for p in points] == THRESHOLDS
    moves = [p["moves"] for p in points]
    # More allowed moves -> at least as much page movement.
    assert all(a <= b * 1.05 + 5 for a, b in zip(moves, moves[1:])), moves
    # Copying (system time) grows with the threshold for ping-pong pages.
    syncs = end_point_syncs(name, sweep_cache, tmp_path)
    assert syncs[0] <= syncs[-1], syncs


@pytest.mark.parametrize("name", ["Primes3", "IMatMult"])
def test_threshold_default_is_near_the_sweet_spot(sweep, name):
    """Threshold 4 sits on the flat part of the cost curve.

    For applications whose shared pages only ever ping-pong (Primes3,
    IMatMult's output) the cheapest threshold is 0 — every move is wasted
    copying — but the default stays within ~25% of that, while very high
    thresholds (unbounded thrashing) are clearly worse.  The real case
    for a nonzero threshold is the handoff pattern, tested below.
    """
    totals = {
        p["threshold"]: p["t_numa_s"] + p["s_numa_s"] for p in sweep[name]
    }
    best = min(totals.values())
    assert totals[4] <= best * 1.25, (
        f"{name}: threshold 4 far from the curve's flat part "
        f"({totals[4] / best:.2f}x best)"
    )
    assert totals[4] <= totals[64], (
        f"{name}: unbounded movement should not beat the default"
    )


def test_handoff_motivates_a_nonzero_threshold():
    """Threshold 0 must lose to the default on the handoff pattern (no
    command runs Handoff; this bench is its only definition)."""
    pinned_at_zero = run_once(
        Handoff(), MoveThresholdPolicy(threshold=0), n_processors=4,
        check_invariants=False,
    )
    default = run_once(
        Handoff(), MoveThresholdPolicy(threshold=4), n_processors=4,
        check_invariants=False,
    )
    assert default.user_time_us < pinned_at_zero.user_time_us * 0.75, (
        "the default threshold should beat pin-on-first-move for handoff"
    )
    assert default.measured_alpha > pinned_at_zero.measured_alpha
