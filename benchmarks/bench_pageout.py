"""Ablation A12 — memory pressure on the fixed-size page pool.

Section 2.1: Mach's logical page pool is fixed at boot time, which on the
ACE equals the global memory size; under pressure pages must go to
backing store and fault back in.  The bench squeezes a streaming workload
through a pool half its footprint and checks three things:

* the run completes, paging in and out transparently through the normal
  fault path (no special casing in the workload);
* footnote 4's semantics hold at scale — pinned pages that are paged out
  come back cacheable (pins after the storm < pins during it);
* the cost is visible where it should be: system time (I/O + protocol),
  not user time.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.numa_manager import NUMAManager
from repro.core.policies import MoveThresholdPolicy
from repro.errors import OutOfMemoryError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.sim.engine import Engine
from repro.sim.ops import MemBlock
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler
from repro.vm.address_space import AddressSpace
from repro.vm.fault import FaultHandler
from repro.vm.page_pool import PagePool
from repro.vm.pageout import BackingStore, PageoutDaemon
from repro.vm.pmap import ACEPmap
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import LayoutBuilder

from conftest import save_artifact

POOL_PAGES = 48
FOOTPRINT_PAGES = 96  # 2x the pool


class Streaming(Workload):
    """Sequentially touch twice a dataset that is 2x the page pool."""

    name = "Streaming"
    g_over_l = 2.0

    def __init__(self, passes: int = 2) -> None:
        self.passes = passes

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        data = layout.shared(
            "stream.data", words=FOOTPRINT_PAGES * ctx.page_size_words
        )
        per_thread = FOOTPRINT_PAGES // ctx.n_threads

        def body(thread: int) -> ThreadBody:
            lo = thread * per_thread
            hi = lo + per_thread
            for _ in range(self.passes):
                for page_index in range(lo, hi):
                    yield MemBlock(
                        data.vpage_at(page_index), reads=200, writes=100
                    )

        return [body(t) for t in range(ctx.n_threads)]


def run_under_pressure(
    n_processors: int = 4, passes: int = 2, with_daemon: bool = True
):
    config = MachineConfig(
        n_processors=n_processors,
        local_pages_per_cpu=16,
        global_pages=POOL_PAGES,
    )
    machine = Machine(config)
    numa = NUMAManager(
        machine, MoveThresholdPolicy(threshold=4), check_invariants=False
    )
    store = BackingStore()
    pool = PagePool(numa, backing_store=store)
    pmap = ACEPmap(numa)
    space = AddressSpace()
    daemon = PageoutDaemon(pool, store, io_us=5_000.0) if with_daemon else None
    faults = FaultHandler(
        machine, space, pool, pmap, pageout_daemon=daemon, pageout_target=8
    )
    ctx = BuildContext(
        space=space,
        n_threads=n_processors,
        n_processors=n_processors,
        machine_config=config,
    )
    threads = [
        CThread(name=f"s{i}", index=i, body=body)
        for i, body in enumerate(Streaming(passes).build(ctx))
    ]
    engine = Engine(machine, faults, AffinityScheduler(n_processors))
    engine.run(threads)
    return machine, numa, pool, store


@pytest.fixture(scope="module")
def pressure():
    return run_under_pressure()


def test_streaming_through_a_small_pool(pressure):
    machine, numa, pool, store = pressure
    # The dataset never fits, so the daemon must have cycled pages.
    assert store.pageouts >= FOOTPRINT_PAGES - POOL_PAGES
    assert store.pageins > 0
    assert pool.live_pages <= POOL_PAGES
    # Page-ins restore contents as initialized pages, not zero-fills.
    assert numa.stats.pages_freed >= store.pageouts


def test_pressure_cost_lands_in_system_time(pressure):
    machine, numa, pool, store = pressure
    total_user = machine.total_user_time_us()
    total_system = machine.total_system_time_us()
    # I/O at 5 ms per transfer dominates the kernel side.
    assert total_system > store.pageouts * 5_000.0
    text = (
        "Memory pressure (pool = half the footprint)\n"
        f"  pageouts {store.pageouts}, pageins {store.pageins}\n"
        f"  user {total_user / 1e6:.3f}s, system {total_system / 1e6:.3f}s"
    )
    save_artifact("pageout.txt", text)


def test_without_a_daemon_the_pool_overflows():
    # A fixed pool without pageout must overflow.
    with pytest.raises(OutOfMemoryError):
        run_under_pressure(n_processors=2, passes=1, with_daemon=False)
