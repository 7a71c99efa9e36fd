"""Topology bench — replicated page tables must earn their keep.

The Mitosis argument (PAPERS.md): on a multi-socket machine a
centralized page table makes every hardware walk a chain of *global*
references, while a per-socket replica serves walks from the socket
tier at the price of cross-socket update broadcasts.  This bench runs
the same workload on the registry's ``4socket32`` machine under both
placements and pins the claim our model makes:

* **Walk cost** — the replicated placement's total modeled PT-walk cost
  must be strictly lower than the centralized one (same walk count,
  socket-tier pricing instead of global).
* **Write amplification** — the replicated placement must record the
  cross-socket replica shootdowns the cheap walks are paid for with.
* **Flat control** — the same workload on the flat ``ace`` machine
  reports no topology counters at all (the layer is inert there).

The rendered comparison lands in ``_artifacts/bench_topology.json`` for
EXPERIMENTS.md.
"""

from __future__ import annotations

import json

from repro.core.policies import MoveThresholdPolicy
from repro.machine.topology import resolve_machine
from repro.sim.harness import build_simulation, run_engine
from repro.workloads.parmult import ParMult

from conftest import once, save_artifact

MACHINE = "4socket32"
#: Threads kept modest: the point is PT counter arithmetic, not load.
N_THREADS = 8


def _run(machine_config):
    sim = build_simulation(
        [ParMult.small()],
        MoveThresholdPolicy(threshold=4),
        n_threads=N_THREADS,
        machine_config=machine_config,
    )
    rounds = run_engine(sim.engine, sim.threads)
    return sim.machine, rounds


def _measure(placement):
    config = resolve_machine(MACHINE)
    if placement != config.page_tables:
        config = config.scaled(page_tables=placement)
    machine, rounds = _run(config)
    counters = machine.topology_counters()
    return {
        "placement": placement,
        "rounds": rounds,
        "user_time_us": machine.total_user_time_us(),
        "system_time_us": machine.total_system_time_us(),
        **counters,
    }


def test_replicated_tables_cut_walk_cost(benchmark):
    def experiment():
        central = _measure("centralized")
        replicated = _measure("replicated")
        flat_machine, _ = _run(None)
        return central, replicated, flat_machine.topology_counters()

    central, replicated, flat_counters = once(benchmark, experiment)

    # Same fault pattern → same number of hardware walks...
    walks_central = central["pt_walks_global"]
    walks_repl = replicated["pt_walks_socket"]
    assert walks_central > 0
    assert walks_repl == walks_central
    assert central["pt_walks_socket"] == 0
    assert replicated["pt_walks_global"] == 0

    # ...but the replicated walks are priced at the socket tier: the
    # modeled remote PT-walk cost must strictly drop.
    assert replicated["pt_walk_us"] < central["pt_walk_us"], (
        f"replicated walks cost {replicated['pt_walk_us']}us, "
        f"centralized {central['pt_walk_us']}us"
    )

    # The price of cheap walks: every mapping update broadcast to the
    # other sockets' replicas.
    assert central["pt_replica_shootdowns"] == 0
    assert replicated["pt_replica_shootdowns"] > 0
    assert replicated["pt_update_us"] > central["pt_update_us"]

    # Flat control: no topology layer, no counters.
    assert flat_counters == {}

    artifact = {
        "t": "bench_topology",
        "machine": MACHINE,
        "workload": "ParMult.small",
        "n_threads": N_THREADS,
        "policy": "move-threshold(4)",
        "centralized": central,
        "replicated": replicated,
        "walk_cost_ratio": round(
            replicated["pt_walk_us"] / central["pt_walk_us"], 4
        ),
    }
    save_artifact("bench_topology.json", json.dumps(artifact, indent=2))
