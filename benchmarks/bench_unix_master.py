"""Ablation A6 — the Unix-master problem (Section 4.6).

Mach ran the in-kernel Unix code on a single "Unix Master" processor, and
some system calls referenced user memory from it: "pages that are used
only by one process (stacks for example) but that are referenced by Unix
system calls can be shared writably with the master processor and can end
up in global memory".  The paper's ad hoc fix rewrote the worst offenders
(sigvec, fstat, ioctl) to stop touching user memory from the master.

The bench runs a syscall-heavy single-page-per-thread workload with and
without the patches and shows the stack pages drifting to global memory
in the unpatched case.
"""

from __future__ import annotations

import functools
from typing import List

from repro.core.policies import MoveThresholdPolicy
from repro.core.state import PageState
from repro.sim.harness import build_simulation
from repro.sim.ops import Compute, MemBlock
from repro.threads.unix_master import PAPER_PATCHED_CALLS, UnixMaster, syscall
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.layout import LayoutBuilder

from conftest import save_artifact


class SyscallHeavy(Workload):
    """Threads that compute on their stacks and call fstat regularly."""

    name = "SyscallHeavy"
    g_over_l = 2.0

    def __init__(self, iterations: int = 120, refs_per_iter: int = 800) -> None:
        self.iterations = iterations
        self.refs_per_iter = refs_per_iter

    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        layout = LayoutBuilder(ctx)
        stacks = [layout.stack(t) for t in range(ctx.n_threads)]

        def body(thread: int) -> ThreadBody:
            stack_page = stacks[thread].vpage_at(0)
            for _ in range(self.iterations):
                yield MemBlock(
                    stack_page,
                    reads=self.refs_per_iter,
                    writes=self.refs_per_iter // 3,
                )
                yield Compute(300.0)
                # fstat passes a user buffer on the thread's stack.
                yield syscall("fstat", 150.0, [(stack_page, 8, 8)])

        return [body(t) for t in range(ctx.n_threads)]


@functools.lru_cache(maxsize=None)
def _run(patched: bool):
    master = UnixMaster(
        master_cpu=0,
        patched_calls=PAPER_PATCHED_CALLS if patched else (),
    )
    sim = build_simulation(
        [SyscallHeavy()],
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        unix_master=master,
        check_invariants=False,
    )
    sim.engine.run(sim.threads)
    stack_states = []
    for name, region in sim.contexts[0].regions.items():
        if not name.startswith("stack"):
            continue
        page = region.vm_object.resident_page(0)
        if page is not None:
            stack_states.append(sim.numa.directory.get(page.page_id).state)
    return sim, stack_states


def test_unpatched_syscalls_drag_stacks_global():
    _, states = _run(patched=False)
    # Stacks of the threads NOT on the master cpu ping-pong with the
    # master and get pinned in global memory.
    pinned = sum(1 for s in states if s is PageState.GLOBAL_WRITABLE)
    assert pinned >= 4, f"expected most stacks pinned, states: {states}"


def test_patched_syscalls_keep_stacks_local():
    _, states = _run(patched=True)
    assert all(s is PageState.LOCAL_WRITABLE for s in states), states


def test_patching_recovers_user_time():
    unpatched, _ = _run(patched=False)
    patched, _ = _run(patched=True)
    u = unpatched.machine.total_user_time_us()
    p = patched.machine.total_user_time_us()
    assert p < u * 0.9, "patching should recover the stack-page locality"
    text = (
        "Unix-master ablation (Section 4.6), syscall-heavy workload\n"
        f"  unpatched: total user {u / 1e6:.3f}s\n"
        f"  patched (sigvec/fstat/ioctl fixed): total user {p / 1e6:.3f}s"
    )
    save_artifact("unix_master.txt", text)
