"""Topology bench — what replicated page tables buy, and what they cost.

The Mitosis argument (PAPERS.md): on a multi-socket machine a
centralized page table makes every hardware walk a chain of *global*
references, while a per-socket replica serves walks from the socket
tier at the price of cross-socket update broadcasts — the eager-
replication tax numaPTE (PAPERS.md) was written against.  This bench
runs the same workload on the registry's ``4socket32`` machine under
both placements and pins *both* halves of the trade, and their sum:

* **Walk cost** — replicated walks are cheaper (same walk count,
  socket-tier pricing instead of global).
* **Update cost** — replicated updates are dearer: every mapping change
  is broadcast, recorded as cross-socket replica shootdowns.
* **Total** (``pt_walk_us + pt_update_us``, the quantity the ledger
  reports as ``machine.pt_total_us.*`` on its ``topology`` workload) —
  on this fault-heavy spec the updates outweigh the walks and the
  replicated placement *loses*.  The gate states which side wins, so a
  change that flips it must say so.
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

from conftest import save_artifact

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


def _total_us(counters) -> float:
    return counters["pt_walk_us"] + counters["pt_update_us"]


def test_replicated_tables_trade_walks_for_updates():
    central = _measure("centralized")
    replicated = _measure("replicated")
    flat_machine, _ = _run(None)

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

    # The whole cost: on this spec the broadcasts outweigh the cheaper
    # walks, so eager replication loses in total.
    assert _total_us(replicated) > _total_us(central), (
        f"replicated page tables now cost {_total_us(replicated)}us in "
        f"total against {_total_us(central)}us centralized: the "
        "placement that wins here changed"
    )

    # Flat control: no topology layer, no counters.
    assert flat_machine.topology_counters() == {}

    artifact = {
        "t": "bench_topology",
        "machine": MACHINE,
        "workload": "ParMult.small",
        "n_threads": N_THREADS,
        "policy": "move-threshold(4)",
        "centralized": {**central, "pt_total_us": _total_us(central)},
        "replicated": {**replicated, "pt_total_us": _total_us(replicated)},
        "walk_cost_ratio": round(
            replicated["pt_walk_us"] / central["pt_walk_us"], 4
        ),
        "total_cost_ratio": round(
            _total_us(replicated) / _total_us(central), 4
        ),
    }
    save_artifact("bench_topology.json", json.dumps(artifact, indent=2))
