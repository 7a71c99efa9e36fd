"""Golden fault-path runs: small fault-bound simulations, pinned.

The slow path — ``FaultHandler.handle`` → ``pmap_enter`` →
``NUMAManager.request`` → actions — is free to hold its machine parts,
read prices from tables and intern frames (DESIGN.md §10.3), but what it
*does* is behaviour: every charged microsecond, reference counter, TLB
and page-table counter and protocol statistic.  The digests below were
taken at commit 57d6feb (the parent of the PR that removed the plumbing
between the layers) and shown to pass there before any file under
``src/`` changed.  Besides the plain matrix they pin the arms the
ledger's ``faultstorm`` never reaches: ``fast_path=False``, local-memory
eviction, the pageout daemon, and the injector's retry / degrade /
frame-failure recoveries.
"""

import hashlib
import json

import pytest

from repro.core.numa_manager import NUMAManager
from repro.core.policies import MoveThresholdPolicy
from repro.core.policies.registry import POLICY_ENTRIES
from repro.exp.spec import RunSpec
from repro.faults.chaos import run_chaos
from repro.faults.injector import RetryPolicy
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.sim.engine import Engine
from repro.sim.harness import Simulation, collect_result, run_engine
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.address_space import AddressSpace
from repro.vm.fault import FaultHandler
from repro.vm.page_pool import PagePool
from repro.vm.pageout import BackingStore, PageoutDaemon
from repro.vm.pmap import ACEPmap
from repro.workloads.base import BuildContext

#: The ledger's ``faultstorm`` applications at about a tenth of its size.
WORKLOADS = {
    "ParMult": ("ParMult", {"total_mults": 3_000, "chunk_mults": 2}),
    "PlyTrace-packed": (
        "PlyTrace",
        {"n_polygons": 200, "padded_framebuffer": False},
    ),
    "Primes3": ("Primes3", {"limit": 13_000}),
}

#: ParMult shares a single page, so only these two can fill a local
#: memory or the page pool.
MULTI_PAGE = ("PlyTrace-packed", "Primes3")

#: Global frames (= logical pages) that make each one page out.
PAGED_GLOBAL_PAGES = {"PlyTrace-packed": 12, "Primes3": 5}

#: Two attempts instead of four, so that runs this small exhaust the
#: retry envelope and reach ``_degrade``.
CHAOS_RETRY = RetryPolicy(max_attempts=2)

MACHINES = {
    "ace4": {"n_processors": 4},
    "4socket32-centralized": {"machine_name": "4socket32", "n_threads": 8},
    "4socket32-replicated": {
        "machine_name": "4socket32",
        "n_threads": 8,
        "page_tables": "replicated",
    },
}


def spec_for(workload, policy="move-threshold", on="ace4", **fields):
    name, params = WORKLOADS[workload]
    return RunSpec(name, params, policy=policy, **MACHINES[on], **fields)


def digest(*views):
    payload = json.dumps(views, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sim_digest(sim, tlb=True):
    """sha256 over everything a finished simulation reports.

    ``tlb=False`` leaves the software-TLB counters out: they are the one
    view in which a ``fast_path=False`` run differs from a fast one.
    """
    rounds = run_engine(sim.engine, sim.threads)
    return digest(
        collect_result(sim, rounds).as_dict(),
        sim.machine.tlb_counters() if tlb else None,
        sim.machine.topology_counters(),
        sim.numa.stats.as_dict(),
    )


def paged_simulation(workload, global_pages, **engine_kwargs):
    """One task whose fault handler reclaims through the pageout daemon
    (``build_simulation`` wires none)."""
    config = MachineConfig(
        n_processors=4, local_pages_per_cpu=16, global_pages=global_pages
    )
    machine = Machine(config)
    numa = NUMAManager(machine, MoveThresholdPolicy(threshold=4))
    store = BackingStore()
    pool = PagePool(numa, backing_store=store)
    pmap = ACEPmap(numa)
    space = AddressSpace(name=workload.name, first_vpage=0x100)
    ctx = BuildContext(
        space=space, n_threads=4, n_processors=4, machine_config=config
    )
    daemon = PageoutDaemon(pool, store, io_us=100.0)
    handler = FaultHandler(machine, space, pool, pmap, pageout_daemon=daemon)
    threads = [
        CThread(name=f"{workload.name}-{index}", index=index, body=body)
        for index, body in enumerate(workload.build(ctx))
    ]
    engine = Engine(machine, handler, AffinityScheduler(4), **engine_kwargs)
    numa.bus = engine.bus
    sim = Simulation(machine, numa, pool, pmap, engine, threads, [ctx])
    return sim, store


#: (workload, policy, machine) -> sha256[:16], from commit 57d6feb.
GOLDEN = {
    ("ParMult", "move-threshold", "ace4"): "f25ebf6c6377c02f",
    ("ParMult", "move-threshold", "4socket32-centralized"): "3c75889bb1790f2d",
    ("ParMult", "move-threshold", "4socket32-replicated"): "6c835946cf30a78b",
    ("ParMult", "all-global", "ace4"): "5aaea1bcfbe9f02d",
    ("ParMult", "all-global", "4socket32-centralized"): "c94df7d275f8521b",
    ("ParMult", "all-global", "4socket32-replicated"): "7f2be9a45c3a582e",
    ("ParMult", "all-local", "ace4"): "7857bcc8d3dafb6b",
    ("ParMult", "all-local", "4socket32-centralized"): "4ea5afb179dd90d0",
    ("ParMult", "all-local", "4socket32-replicated"): "95cbdbee9f0ec0dd",
    ("ParMult", "all-global-everything", "ace4"): "548ca8ca3a1feb1d",
    ("ParMult", "all-global-everything", "4socket32-centralized"): "c5b7932e63904f58",
    ("ParMult", "all-global-everything", "4socket32-replicated"): "3d57b7e8d3422cf7",
    ("ParMult", "migration-only", "ace4"): "e633641734958184",
    ("ParMult", "migration-only", "4socket32-centralized"): "72cf0bc90ec81f8b",
    ("ParMult", "migration-only", "4socket32-replicated"): "85000fb58377397a",
    ("ParMult", "replication-only", "ace4"): "e03ca4b189c5b04b",
    ("ParMult", "replication-only", "4socket32-centralized"): "3482c40980550a87",
    ("ParMult", "replication-only", "4socket32-replicated"): "a8f6ae4ef254ac82",
    ("ParMult", "reconsider", "ace4"): "0e8c1800fbcac94b",
    ("ParMult", "reconsider", "4socket32-centralized"): "87f2b41764e3dcd2",
    ("ParMult", "reconsider", "4socket32-replicated"): "b6792ee2ef9eb60e",
    ("ParMult", "decay", "ace4"): "094769ba3cecea41",
    ("ParMult", "decay", "4socket32-centralized"): "00eefa554f8f43f7",
    ("ParMult", "decay", "4socket32-replicated"): "c885d968ca034191",
    ("ParMult", "adaptive-threshold", "ace4"): "fc5e0a89948fbc01",
    ("ParMult", "adaptive-threshold", "4socket32-centralized"): "252cd58985c1aeaf",
    ("ParMult", "adaptive-threshold", "4socket32-replicated"): "7c9c3e77b8164a66",
    ("ParMult", "bandwidth-aware", "ace4"): "4619503d48803bcf",
    ("ParMult", "bandwidth-aware", "4socket32-centralized"): "538f159bdf337857",
    ("ParMult", "bandwidth-aware", "4socket32-replicated"): "89d6bf7347be28e2",
    ("ParMult", "bandit", "ace4"): "e64135d4e573bc96",
    ("ParMult", "bandit", "4socket32-centralized"): "48e23a5f40e6b312",
    ("ParMult", "bandit", "4socket32-replicated"): "171bc19a8cf55762",
    ("PlyTrace-packed", "move-threshold", "ace4"): "5e39988ee5f826da",
    ("PlyTrace-packed", "move-threshold", "4socket32-centralized"): "adc997566d4cfc45",
    ("PlyTrace-packed", "move-threshold", "4socket32-replicated"): "5b9bbfd54c424633",
    ("PlyTrace-packed", "all-global", "ace4"): "66fc0790d204b85f",
    ("PlyTrace-packed", "all-global", "4socket32-centralized"): "586d694cf2eb4fb7",
    ("PlyTrace-packed", "all-global", "4socket32-replicated"): "51cbbc4dcef6ff6e",
    ("PlyTrace-packed", "all-local", "ace4"): "20bf0686189c9e79",
    ("PlyTrace-packed", "all-local", "4socket32-centralized"): "ff88a862b3d075b1",
    ("PlyTrace-packed", "all-local", "4socket32-replicated"): "0c7a84b6795ef4e0",
    ("PlyTrace-packed", "all-global-everything", "ace4"): "e2440fba83081af8",
    ("PlyTrace-packed", "all-global-everything", "4socket32-centralized"): "c99598a7eae75887",
    ("PlyTrace-packed", "all-global-everything", "4socket32-replicated"): "f780f6482f8034e9",
    ("PlyTrace-packed", "migration-only", "ace4"): "854447374d613813",
    ("PlyTrace-packed", "migration-only", "4socket32-centralized"): "daa65c34cf447117",
    ("PlyTrace-packed", "migration-only", "4socket32-replicated"): "8603a331a1fb3665",
    ("PlyTrace-packed", "replication-only", "ace4"): "c82f6fac98bde212",
    ("PlyTrace-packed", "replication-only", "4socket32-centralized"): "180710cc11e1914b",
    ("PlyTrace-packed", "replication-only", "4socket32-replicated"): "0b2eb6325621533b",
    ("PlyTrace-packed", "reconsider", "ace4"): "ac42202f19bbbdfd",
    ("PlyTrace-packed", "reconsider", "4socket32-centralized"): "3b379056a444ce21",
    ("PlyTrace-packed", "reconsider", "4socket32-replicated"): "b25eaa57521bd8b5",
    ("PlyTrace-packed", "decay", "ace4"): "fae5cfac0eaa8019",
    ("PlyTrace-packed", "decay", "4socket32-centralized"): "128811c5ad8162ea",
    ("PlyTrace-packed", "decay", "4socket32-replicated"): "4f5872a483e76993",
    ("PlyTrace-packed", "adaptive-threshold", "ace4"): "c0708484a17e604e",
    ("PlyTrace-packed", "adaptive-threshold", "4socket32-centralized"): "f737e088db8d3a2c",
    ("PlyTrace-packed", "adaptive-threshold", "4socket32-replicated"): "ec404a7d8fb66bd9",
    ("PlyTrace-packed", "bandwidth-aware", "ace4"): "355dbd75f9b16b0b",
    ("PlyTrace-packed", "bandwidth-aware", "4socket32-centralized"): "1175efc68aa884f9",
    ("PlyTrace-packed", "bandwidth-aware", "4socket32-replicated"): "b64869bbc53b392f",
    ("PlyTrace-packed", "bandit", "ace4"): "677fa0aad596da9c",
    ("PlyTrace-packed", "bandit", "4socket32-centralized"): "249e218d9d3d7b1d",
    ("PlyTrace-packed", "bandit", "4socket32-replicated"): "d495c653f65b5d5f",
    ("Primes3", "move-threshold", "ace4"): "797f2cbfe8fc19eb",
    ("Primes3", "move-threshold", "4socket32-centralized"): "47d7256fa62150cf",
    ("Primes3", "move-threshold", "4socket32-replicated"): "d43f7970f8e918aa",
    ("Primes3", "all-global", "ace4"): "51bc8c4b5b1bc674",
    ("Primes3", "all-global", "4socket32-centralized"): "607b132d0499db56",
    ("Primes3", "all-global", "4socket32-replicated"): "4110fd4765db0483",
    ("Primes3", "all-local", "ace4"): "c4db3590e2b5d399",
    ("Primes3", "all-local", "4socket32-centralized"): "6e9f413e38b10bfd",
    ("Primes3", "all-local", "4socket32-replicated"): "d70f4a73bdfe570a",
    ("Primes3", "all-global-everything", "ace4"): "fc10baa949691a51",
    ("Primes3", "all-global-everything", "4socket32-centralized"): "9fc14025a30f8ddf",
    ("Primes3", "all-global-everything", "4socket32-replicated"): "d9e2fe204ea1d09c",
    ("Primes3", "migration-only", "ace4"): "c124ce8afd34e020",
    ("Primes3", "migration-only", "4socket32-centralized"): "e97bf8e910b258bc",
    ("Primes3", "migration-only", "4socket32-replicated"): "79c58684b9dac64f",
    ("Primes3", "replication-only", "ace4"): "d84a66e377648c12",
    ("Primes3", "replication-only", "4socket32-centralized"): "08a5dc066c9a7151",
    ("Primes3", "replication-only", "4socket32-replicated"): "9dc19f402de51eea",
    ("Primes3", "reconsider", "ace4"): "49d7d79578f0508f",
    ("Primes3", "reconsider", "4socket32-centralized"): "7357ba99811e9592",
    ("Primes3", "reconsider", "4socket32-replicated"): "4cd0259667017af0",
    ("Primes3", "decay", "ace4"): "90bd03c056a6da99",
    ("Primes3", "decay", "4socket32-centralized"): "fb31f4b4adbce84c",
    ("Primes3", "decay", "4socket32-replicated"): "a2c33687d39a61c0",
    ("Primes3", "adaptive-threshold", "ace4"): "1bd93f0e3ee81ee1",
    ("Primes3", "adaptive-threshold", "4socket32-centralized"): "77c594188e12cd5b",
    ("Primes3", "adaptive-threshold", "4socket32-replicated"): "c358e90c9ea0c8fc",
    ("Primes3", "bandwidth-aware", "ace4"): "34f6acb9114148bf",
    ("Primes3", "bandwidth-aware", "4socket32-centralized"): "813ef2ab07910962",
    ("Primes3", "bandwidth-aware", "4socket32-replicated"): "7c8ac5dd6c4da168",
    ("Primes3", "bandit", "ace4"): "a2cd93fbee0aab34",
    ("Primes3", "bandit", "4socket32-centralized"): "4b2f06499a36aaca",
    ("Primes3", "bandit", "4socket32-replicated"): "63f27f6b219cec87",
}

#: The same key with ``fast_path=False``, from commit 57d6feb.
GOLDEN_SLOW = {
    ("ParMult", "move-threshold", "ace4"): "cedbab07aae6ecdf",
    ("ParMult", "move-threshold", "4socket32-centralized"): "12c7ffd3fe87b029",
    ("ParMult", "move-threshold", "4socket32-replicated"): "6af31e9a15d9e85d",
    ("ParMult", "migration-only", "ace4"): "271a2b44a759bbc4",
    ("ParMult", "migration-only", "4socket32-centralized"): "0f1a1174c44fcbec",
    ("ParMult", "migration-only", "4socket32-replicated"): "6af97a94f3ede041",
    ("PlyTrace-packed", "move-threshold", "ace4"): "716ea15f4ae800b8",
    ("PlyTrace-packed", "move-threshold", "4socket32-centralized"): "d3e1b6cc380f744d",
    ("PlyTrace-packed", "move-threshold", "4socket32-replicated"): "c5aeecfa655dd18e",
    ("PlyTrace-packed", "migration-only", "ace4"): "28d3723c81e793a6",
    ("PlyTrace-packed", "migration-only", "4socket32-centralized"): "55ef9ec4a33a8928",
    ("PlyTrace-packed", "migration-only", "4socket32-replicated"): "7ed811464a8f30f4",
    ("Primes3", "move-threshold", "ace4"): "4884cc0f8b7597a5",
    ("Primes3", "move-threshold", "4socket32-centralized"): "ba496e74c9e1ef71",
    ("Primes3", "move-threshold", "4socket32-replicated"): "4d0fcad0bba1a8a2",
    ("Primes3", "migration-only", "ace4"): "f69b3b3af288a5cb",
    ("Primes3", "migration-only", "4socket32-centralized"): "4b0decb3af6036f2",
    ("Primes3", "migration-only", "4socket32-replicated"): "7e4d66d184da0173",
}

#: workload -> sha256[:16] with two local pages per CPU, from 57d6feb.
GOLDEN_TINY_LOCAL = {
    "PlyTrace-packed": "542040d79f3e9a1d",
    "Primes3": "630009c5681ea1fe",
}

#: workload -> sha256[:16] under the pageout daemon, from 57d6feb.
GOLDEN_PAGED = {
    "PlyTrace-packed": "5a15ba69a0070cd3",
    "Primes3": "b5263a5a75ddc580",
}

#: (workload, profile) -> sha256[:16] of the chaos report, from 57d6feb.
GOLDEN_CHAOS = {
    ("ParMult", "none"): "206e5a846e82bd53",
    ("ParMult", "transient"): "74464704cc6a191f",
    ("ParMult", "frame-loss"): "40a698edd6062fb8",
    ("PlyTrace-packed", "none"): "9664a9064dc43af4",
    ("PlyTrace-packed", "transient"): "f352e7d03eb5d633",
    ("PlyTrace-packed", "frame-loss"): "fcf452d757f4fb66",
    ("Primes3", "none"): "84e3583903ea5b47",
    ("Primes3", "transient"): "08f5c55556b4a60c",
    ("Primes3", "frame-loss"): "43cb6f42736c877e",
}


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("policy", POLICY_ENTRIES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_policy_on_every_machine(workload, policy, machine):
    sim = spec_for(workload, policy, machine).build()
    assert sim_digest(sim) == GOLDEN[workload, policy, machine]


@pytest.mark.parametrize("workload, policy, machine", GOLDEN_SLOW)
def test_slow_path_only_equals_the_fast_run(workload, policy, machine):
    slow = spec_for(workload, policy, machine, fast_path=False)
    assert sim_digest(slow.build()) == GOLDEN_SLOW[workload, policy, machine]
    fast = spec_for(workload, policy, machine)
    assert sim_digest(slow.build(), tlb=False) == sim_digest(
        fast.build(), tlb=False
    )


@pytest.mark.parametrize("workload", MULTI_PAGE)
def test_two_local_pages_per_cpu_evicts(workload):
    """The ``_ensure_local_frame`` / ``_evict_one`` arm."""
    sim = spec_for(workload, machine={"local_pages_per_cpu": 2}).build()
    assert sim_digest(sim) == GOLDEN_TINY_LOCAL[workload]
    assert sim.numa.stats.evictions > 0


@pytest.mark.parametrize("workload", MULTI_PAGE)
def test_run_under_the_pageout_daemon(workload):
    sim, store = paged_simulation(
        spec_for(workload).resolve_workload(), PAGED_GLOBAL_PAGES[workload]
    )
    assert sim_digest(sim) == GOLDEN_PAGED[workload]
    assert store.pageouts > 0 and store.pageins > 0


def chaos_report(workload, profile):
    spec = spec_for(workload, "all-local")
    return run_chaos(
        spec.resolve_workload(),
        profile,
        seed=7,
        n_processors=spec.n_processors,
        policy=spec.resolve_policy(),
        retry=CHAOS_RETRY,
    )


@pytest.mark.parametrize("profile", ["none", "transient", "frame-loss"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_chaos_recoveries(workload, profile):
    """The ``_inj_transfers`` gate, ``_degrade``, ``handle_frame_failure``."""
    report = chaos_report(workload, profile)
    assert digest(report.as_dict()) == GOLDEN_CHAOS[workload, profile]
    recovered = report.faults
    if profile == "none":
        assert not any(recovered.values())
    else:
        assert recovered["retry_successes"] > 0
        assert recovered["degradations"] > 0
    if profile == "frame-loss":
        assert recovered["frames_offlined"] > 0
        assert recovered["pages_refaulted"] > 0
