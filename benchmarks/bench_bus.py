"""Ablation A9 — checking Section 3.1's bus-contention assumption.

The paper's methodology "required that measurements ... be relatively
free of lock, bus or memory contention", which the authors ensured by
choosing applications; the simulator's exact traffic counts let us verify
it.  ``repro-numa bus`` computes IPC-bus utilization for every Table 3
application at 7 processors (all should be comfortably below saturation
except the deliberately pathological Gfetch); the bench then sweeps
Gfetch across machine sizes to show where the 80 MB/s bus would start to
bite.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis.bus import analyze_bus
from repro.core.policies import MoveThresholdPolicy
from repro.machine.config import ace_config
from repro.sim.harness import run_once
from repro.workloads import TABLE_3_WORKLOADS
from repro.workloads.gfetch import Gfetch

from conftest import repro_numa, save_artifact


@pytest.fixture(scope="module")
def utilization() -> Dict[str, float]:
    """``bus``'s ρ per application; its stdout is A9."""
    stdout, records = repro_numa("bus")
    save_artifact("bus.txt", stdout)
    return {r["application"]: r["utilization"] for r in records}


@pytest.mark.parametrize("name", list(TABLE_3_WORKLOADS))
def test_bus_utilization_per_application(utilization, name):
    if name == "Gfetch":
        # Seven processors doing nothing but global fetches: the one
        # workload that genuinely loads the bus.
        assert utilization[name] > 0.15
    else:
        assert utilization[name] < 0.15, (
            f"{name}: bus utilization {utilization[name]:.2f} breaks the "
            "paper's contention-free assumption"
        )


def test_gfetch_scaling_loads_the_bus():
    """Utilization grows with processor count for a bus-bound program
    (the command fixes the machine size; this sweep is bench-only)."""
    rhos = {}
    for n in (2, 4, 8):
        config = ace_config(n, enforce_backplane=True)
        result = run_once(
            Gfetch(total_fetches=240_000),
            MoveThresholdPolicy(threshold=4),
            machine_config=config,
            check_invariants=False,
        )
        rhos[n] = analyze_bus(result, config).utilization
    assert rhos[2] < rhos[4] < rhos[8]
