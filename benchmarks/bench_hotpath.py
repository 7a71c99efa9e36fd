"""Hot-path bench — the software TLB must actually pay for itself.

The fast-path/slow-path split (DESIGN.md "Fast path / slow path") only
earns its complexity if batching reference charges through the per-CPU
:class:`~repro.machine.tlb.SoftwareTLB` makes the simulator materially
faster *without changing anything it simulates*.  This bench pins both
halves of that claim:

* **Speed** (host CPU time, best-of-N, interleaved): engine ops/second
  with ``fast_path=True`` vs ``fast_path=False`` on fine-grained
  ParMult and Gfetch instances under Tnuma (move-threshold 4).  The
  fine-grained instances issue thousands of small reference blocks, the
  per-block-overhead regime the TLB targets; the stock coarse instances
  spend their time in fault handling, which the TLB deliberately leaves
  alone.
* **Fidelity**: the two modes must produce bit-identical simulated
  user/system microseconds and NUMA protocol counters.

The acceptance threshold defaults to 2.0x and can be relaxed via the
``HOTPATH_MIN_SPEEDUP`` environment variable — CI's regression smoke
runs with 1.5 so noisy shared runners don't flake, while the committed
artifact records the real measured ratios.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import build_simulation
from repro.workloads.gfetch import Gfetch
from repro.workloads.parmult import ParMult

from conftest import once, save_artifact

N_PROCESSORS = 4
TIMING_REPS = 7
DEFAULT_MIN_SPEEDUP = 2.0

#: Fine-grained instances: same workloads, chunk knobs turned down so the
#: run issues many small reference blocks instead of a few huge ones.
WORKLOADS = {
    "ParMult": lambda: ParMult(total_mults=24_000, chunk_mults=2),
    "Gfetch": lambda: Gfetch(total_fetches=42_000, buffer_pages=8, chunk_fetches=5),
}


def min_speedup() -> float:
    """Required fast/slow ops-per-second ratio (env-overridable for CI)."""
    return float(os.environ.get("HOTPATH_MIN_SPEEDUP", DEFAULT_MIN_SPEEDUP))


def _run(factory, fast_path):
    sim = build_simulation(
        [factory()],
        MoveThresholdPolicy(threshold=4),
        n_processors=N_PROCESSORS,
        fast_path=fast_path,
    )
    started = time.process_time()
    sim.engine.run(sim.threads)
    elapsed = time.process_time() - started
    return sim, elapsed


def _fingerprint(sim):
    """Everything the simulation computed, for the fidelity assertion."""
    machine = sim.machine
    return (
        machine.total_user_time_us(),
        machine.total_system_time_us(),
        sorted(sim.numa.stats.as_dict().items()),
    )


def measure(factory, reps=TIMING_REPS):
    """Best-of-*reps* ops/second for both modes, interleaved.

    Interleaving fast and slow samples means host drift (CI neighbours,
    frequency scaling) hits both measurements alike; best-of-N strips
    allocator and scheduler noise.  Rates divide the engine's own
    ``ops_executed`` by CPU seconds around ``run`` only — build cost is
    identical in both modes and excluded.
    """
    best_fast = best_slow = 0.0
    fast_fp = slow_fp = None
    for _ in range(reps):
        sim, elapsed = _run(factory, True)
        best_fast = max(best_fast, sim.engine.ops_executed / elapsed)
        fast_fp = _fingerprint(sim)
        sim, elapsed = _run(factory, False)
        best_slow = max(best_slow, sim.engine.ops_executed / elapsed)
        slow_fp = _fingerprint(sim)
    return best_fast, best_slow, fast_fp, slow_fp


def test_fast_path_speedup_and_fidelity(benchmark):
    def experiment():
        results = {}
        for name, factory in WORKLOADS.items():
            fast, slow, fast_fp, slow_fp = measure(factory)
            results[name] = (fast, slow, fast_fp, slow_fp)
        return results

    results = once(benchmark, experiment)
    threshold = min_speedup()
    artifact = {
        "t": "bench_hotpath",
        "n_processors": N_PROCESSORS,
        "timing_reps": TIMING_REPS,
        "policy": "move-threshold(4)",
        "min_speedup": threshold,
        "workloads": {},
    }
    for name, (fast, slow, fast_fp, slow_fp) in results.items():
        # Fidelity first: a fast path that changes the answer is a bug,
        # not a speedup.
        assert fast_fp == slow_fp, (
            f"{name}: fast_path=True diverged from the slow path"
        )
        ratio = fast / slow
        artifact["workloads"][name] = {
            "fast_ops_per_s": round(fast),
            "slow_ops_per_s": round(slow),
            "speedup": round(ratio, 2),
            "user_time_us": round(fast_fp[0], 3),
            "system_time_us": round(fast_fp[1], 3),
        }
        assert ratio >= threshold, (
            f"{name}: fast path is {ratio:.2f}x the slow path, "
            f"need >= {threshold:.2f}x"
        )
    save_artifact("bench_hotpath.json", json.dumps(artifact, indent=2))


def test_fast_path_identity_on_stock_instances():
    """The coarse Table 3 instances are bit-identical across modes too."""
    for name, factory in (("ParMult", ParMult), ("Gfetch", Gfetch)):
        fast_sim, _ = _run(factory, True)
        slow_sim, _ = _run(factory, False)
        assert _fingerprint(fast_sim) == _fingerprint(slow_sim), name
        # And the fast path genuinely engaged: the TLB saw traffic.
        counters = fast_sim.machine.tlb_counters()
        assert counters["hits"] > 0, name
        assert fast_sim.engine.fast_path and not slow_sim.engine.fast_path
