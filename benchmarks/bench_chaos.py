"""Ablation A13 — fault injection: inert at rest, deterministic when it fires.

The chaos harness (`src/repro/faults/`) wires a retry envelope into the
NUMA manager's transfer paths and a fault pump into the engine's
operation loop.  Two claims, both in simulated time:

* **At rest** — with the ``none`` profile (full machinery attached,
  nothing ever fires) a full-size ParMult run equals the uninjected
  baseline exactly: identical protocol counters and user/system µs.
  What the dormant hooks cost in *host* time is the performance
  ledger's kind of number, not a bench's.
* **When it fires** — every shipped profile completes under the
  sanitizer and ``repro-numa chaos`` prints the same bytes for the same
  workload, profile and seed.
"""

from __future__ import annotations

import json

import pytest

from repro.core.policies import MoveThresholdPolicy
from repro.faults import make_injector, run_chaos
from repro.sim.harness import run_once
from repro.workloads.parmult import ParMult

from conftest import repro_numa, save_artifact

N_PROCESSORS = 4

#: profile -> the fault counter that proves the profile really fired.
FIRES = {
    "transient": "injected_transfer_fail",
    "frame-loss": "frames_offlined",
    "storm": "injected_pressure_spike",
}


def test_none_profile_perturbs_nothing():
    baseline = run_once(
        ParMult(), MoveThresholdPolicy(), n_processors=N_PROCESSORS
    )
    report = run_chaos(
        ParMult(),
        "none",
        seed=0,
        n_processors=N_PROCESSORS,
        sanitize=False,
    )
    assert report.numa == baseline.stats.as_dict()
    assert report.user_time_us == baseline.user_time_us
    assert report.system_time_us == baseline.system_time_us
    assert report.faults["injected_delay_us"] == 0.0
    assert report.degraded_pages == 0 and report.offline_frames == 0
    artifact = {
        "t": "bench_chaos",
        "workload": "ParMult",
        "n_processors": N_PROCESSORS,
        "user_time_us": report.user_time_us,
        "system_time_us": report.system_time_us,
        "numa_stats": report.numa,
    }
    save_artifact("bench_chaos.json", json.dumps(artifact, indent=2))


@pytest.mark.parametrize("profile", list(FIRES))
def test_chaos_profiles_complete_and_report(profile):
    """Every shipped profile completes, sanitized, deterministically."""
    argv = ("chaos", "parmult", "--quick", "--profile", profile, "--seed", "7")
    stdout, [report] = repro_numa(*argv)
    save_artifact(f"chaos_{profile}.json", stdout)
    assert repro_numa(*argv)[0] == stdout
    assert report["sanitized"]
    assert report["faults"][FIRES[profile]] > 0


def test_injector_reuse_continues_the_rng_stream():
    """A fresh injector per run keeps seeds meaningful (doc test)."""
    injector = make_injector("transient", seed=7)
    first = run_chaos(
        ParMult.small(),
        "transient",
        n_processors=N_PROCESSORS,
        injector=injector,
    )
    # Reusing the injector continues its RNG stream: the second run is
    # a *different* (but still deterministic) fault sequence.
    second = run_chaos(
        ParMult.small(),
        "transient",
        n_processors=N_PROCESSORS,
        injector=injector,
    )
    assert first.seed == second.seed == 7
    assert first.faults != second.faults
