"""Hot-path bench — the software TLB must change nothing it simulates.

The fast-path/slow-path split (DESIGN.md "Fast path / slow path")
batches reference charges through the per-CPU
:class:`~repro.machine.tlb.SoftwareTLB`.  What it buys in host time is
the performance ledger's number (``work_per_cpu_s`` on ``refstream``,
``benchmarks/ledger/``); this bench pins the other half of the claim,
**fidelity**: ``fast_path=True`` and ``fast_path=False`` must produce
bit-identical simulated user/system microseconds and NUMA protocol
counters, on fine-grained ParMult and Gfetch instances (thousands of
small reference blocks, the regime the TLB targets) and on the stock
coarse ones.
"""

from __future__ import annotations

from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import build_simulation
from repro.workloads.gfetch import Gfetch
from repro.workloads.parmult import ParMult

from conftest import once

N_PROCESSORS = 4

#: Fine-grained instances: same workloads, chunk knobs turned down so the
#: run issues many small reference blocks instead of a few huge ones.
WORKLOADS = {
    "ParMult": lambda: ParMult(total_mults=24_000, chunk_mults=2),
    "Gfetch": lambda: Gfetch(total_fetches=42_000, buffer_pages=8, chunk_fetches=5),
}


def _run(factory, fast_path):
    sim = build_simulation(
        [factory()],
        MoveThresholdPolicy(threshold=4),
        n_processors=N_PROCESSORS,
        fast_path=fast_path,
    )
    sim.engine.run(sim.threads)
    return sim


def _fingerprint(sim):
    """Everything the simulation computed, for the fidelity assertion."""
    machine = sim.machine
    return (
        machine.total_user_time_us(),
        machine.total_system_time_us(),
        sorted(sim.numa.stats.as_dict().items()),
    )


def test_fast_path_fidelity(benchmark):
    def experiment():
        return {
            name: (_run(factory, True), _run(factory, False))
            for name, factory in WORKLOADS.items()
        }

    for name, (fast, slow) in once(benchmark, experiment).items():
        # A fast path that changes the answer is a bug, not a speedup.
        assert _fingerprint(fast) == _fingerprint(slow), (
            f"{name}: fast_path=True diverged from the slow path"
        )


def test_fast_path_identity_on_stock_instances():
    """The coarse Table 3 instances are bit-identical across modes too."""
    for name, factory in (("ParMult", ParMult), ("Gfetch", Gfetch)):
        fast_sim = _run(factory, True)
        slow_sim = _run(factory, False)
        assert _fingerprint(fast_sim) == _fingerprint(slow_sim), name
        # And the fast path genuinely engaged: the TLB saw traffic.
        counters = fast_sim.machine.tlb_counters()
        assert counters["hits"] > 0, name
        assert fast_sim.engine.fast_path and not slow_sim.engine.fast_path
