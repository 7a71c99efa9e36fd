"""The simulation engine: deterministic interleaving of thread operations.

Threads advance round-robin, one operation per round, which is the
interleaving-granularity knob of DESIGN.md §5.3: total user time — the
paper's metric — is insensitive to interleaving for the contention-free
applications the paper chose, while ownership ping-pong (which the policy
counts) still happens at a realistic rate because writers genuinely
alternate.

Memory references are split into a fast path and a slow path, mirroring
the paper's premise that the common case — a reference hitting an
already-placed page — must be cheap.  The fast path resolves a whole
same-page reference block through the per-CPU software TLB
(:mod:`repro.machine.tlb`) and charges it in bulk off the cached latency
class; only a TLB miss or a protection upgrade (write to a read-only
entry) takes the slow path, where the MMU translates and misses trap into
the machine-independent fault handler driving the NUMA protocol.  Both
paths charge bit-identical simulated time: the TLB entry caches the very
per-word costs ``block_us`` would recompute, and protocol activity —
which is what could invalidate a translation mid-block — only ever runs
from the slow path's fault handling or between operations (policy ticks,
injector pumps), so a TLB hit guarantees the whole block is fault-free.
A shootdown therefore never lands mid-batch; it lands between batches,
splitting them exactly where the unbatched simulator would have faulted.

:meth:`Engine.run` is the one dispatch loop (DESIGN.md §10.2): a TLB hit
or a compute burst is consumed inside it, and it is left only for the
slow arm (a miss, without a second lookup), the rare op kinds, and
:meth:`Engine._after_op` when a pump is pending or the tick is due.  Per
op it calls only ``next_op`` and the TLB lookup, which the ledger wraps
(and the scheduler if it moves threads); a hit or a compute burst adds to
the CPU clock in place, with per-op task books only if several tasks run.
Per round it tests a live-thread count and walks the bus's live
``on_round_end`` list.

Observation is fanned out through an :class:`~repro.obs.events.EventBus`:
any number of observers subscribe to the engine's bus, and ``observer=``
subscribes one more at construction.  A reference or round-end event
costs only its listeners' hooks, which the engine calls from the bus's
held lists itself; a TLB hit hands over the page id its entry carries,
so only a miss looks it up.  When a :class:`PhaseProfiler` is installed,
the engine times its own wall-clock hot phases — fault handling, policy
ticks, and reference batches (one span per block, added once per round);
neither the bus nor the profiler ever charges simulated time, and both
are arms of the one loop the bare run takes.
"""

from __future__ import annotations

# repro-lint: allow-file[no-wall-clock] -- perf_counter feeds the
# PhaseProfiler's self-timing only; it never charges simulated time.
from time import perf_counter
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.state import AccessKind
from repro.errors import FaultResolutionError, SimulationError
from repro.machine.machine import Machine
from repro.machine.memory import Frame
from repro.machine.mmu import MMUFault
from repro.machine.protection import PROT_READ, PROT_READ_WRITE
from repro.machine.timing import MemoryLocation
from repro.obs.events import EventBus
from repro.obs.profiling import PhaseProfiler
from repro.sim.ops import Barrier, Compute, FreeObjectPages, MemBlock, Syscall
from repro.threads.cthreads import CThread, ThreadState
from repro.threads.scheduler import Scheduler
from repro.threads.unix_master import UnixMaster
from repro.vm.fault import FaultHandler

#: How many times the fault handler may run for one access before the
#: engine declares the protocol livelocked.  Two attempts cover the
#: legitimate double fault (read-establishes-mapping, then the protection
#: upgrade); the third is headroom for an injected invalidation landing
#: between them.
MAX_FAULT_RESOLUTION_ATTEMPTS = 3


class EngineObserver(Protocol):
    """Hook for trace collection; see :mod:`repro.analysis.tracing`."""

    def on_reference(
        self,
        round_index: int,
        cpu: int,
        vpage: int,
        page_id: int,
        reads: int,
        writes: int,
        location: MemoryLocation,
        writable_data: bool,
    ) -> None:
        """A block of user references was issued."""

    def on_fault(
        self, round_index: int, cpu: int, vpage: int, kind: AccessKind
    ) -> None:
        """A page fault was taken."""


class Engine:
    """Executes a set of threads to completion on a machine."""

    def __init__(
        self,
        machine: Machine,
        fault_handler: FaultHandler,
        scheduler: Scheduler,
        unix_master: Optional[UnixMaster] = None,
        observer: Optional[EngineObserver] = None,
        policy_tick_ops: int = 256,
        extra_handlers: Optional[Dict[int, FaultHandler]] = None,
        bus: Optional[EventBus] = None,
        profiler: Optional[PhaseProfiler] = None,
        fast_path: bool = True,
    ) -> None:
        self._machine = machine
        #: The live CPU list and the timing model, held: the reference
        #: path uses them on every operation, ``Machine.cpu`` is a method
        #: call away, and a machine never replaces either.
        self._cpus = machine.cpus
        self._timing = machine.timing
        self._faults = fault_handler
        #: Fault handler per Mach task; single-task runs use only task 0.
        self._handlers: Dict[int, FaultHandler] = {0: fault_handler}
        if extra_handlers:
            self._handlers.update(extra_handlers)
        self._scheduler = scheduler
        self._unix_master = unix_master or UnixMaster(master_cpu=0)
        self._bus = bus if bus is not None else EventBus()
        if observer is not None:
            self._bus.subscribe(observer)
        #: The bus's live hook lists: both arms test ``on_reference`` per
        #: block, the slow arm the two fault lists per fault.
        self._reference_hooks = self._bus.hooks("on_reference")
        self._fault_hooks = self._bus.hooks("on_fault")
        self._fault_resolved_hooks = self._bus.hooks("on_fault_resolved")
        self._profiler = profiler
        self._injector = None
        self._pump_pending = False
        self._policy_tick_ops = policy_tick_ops
        #: When False, every reference block takes the slow path (MMU
        #: translate + timing model per block).  The TLB is then never
        #: consulted or filled; the fast-path tests use this to assert
        #: identical simulated results.
        self._fast_path = fast_path
        self._round = 0
        #: Operations executed, all kinds; the ledger's ops/sec base.
        self.ops_executed = 0
        #: ``ops_executed`` at which the next policy tick falls due.
        self._tick_due = policy_tick_ops
        #: (task, vpage) -> (vm_object, offset, writable_data); regions
        #: are static once workloads finish building, so memoization is
        #: safe.
        self._vpage_info: Dict[Tuple[int, int], Tuple[object, int, bool]] = {}
        #: User time attributed to each task (for multiprogrammed mixes).
        self.task_user_us: Dict[int, float] = {}

    @property
    def rounds(self) -> int:
        """Scheduling rounds completed."""
        return self._round

    @property
    def scheduler(self) -> Scheduler:
        """The scheduler assigning threads to processors."""
        return self._scheduler

    @property
    def bus(self) -> EventBus:
        """The event bus all observers subscribe to."""
        return self._bus

    def add_observer(self, observer: object) -> None:
        """Subscribe *observer* to this engine's event bus."""
        self._bus.subscribe(observer)

    @property
    def fast_path(self) -> bool:
        """Whether reference blocks may resolve through the software TLB."""
        return self._fast_path

    @property
    def profiler(self) -> Optional[PhaseProfiler]:
        """Wall-clock profiler for engine phases, if installed."""
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: Optional[PhaseProfiler]) -> None:
        self._profiler = profiler

    @property
    def injector(self):
        """The fault injector pumped at policy ticks, if any."""
        return self._injector

    @injector.setter
    def injector(self, injector) -> None:
        self._injector = injector
        self._pump_pending = (
            injector is not None and injector.wants_pump
        )

    # -- main loop ---------------------------------------------------------

    def run(self, threads: List[CThread]) -> int:
        """Run all *threads* to completion; returns rounds executed.

        The one dispatch loop: each op is fetched, classified and — a
        compute burst, or a reference block the TLB vouches for — charged
        right here.  Profiling and reference events are arms of this same
        loop, so an observed run takes the path a bare run takes.
        """
        # The loop body runs once per thread per round; enum members,
        # bound methods, run-constant attributes, the round index and the
        # op counter (put back on self at each round's end and before the
        # slow arm or a tick) are locals.
        runnable = ThreadState.RUNNABLE
        cpu_for = self._scheduler.cpu_for
        # A lane's CPU is None under a moving scheduler, which is then asked
        # per thread and round, so its migration count stays exact.
        lanes = [(t, self._scheduler.fixed_cpu(t), t.task) for t in threads]
        cpus = self._cpus
        task_us = self.task_user_us
        # Per-op task books only when there are tasks to tell apart; a
        # one-task run's share is the machine's user time, set at the end.
        books = len({t.task for t in threads}) > 1
        ref_hooks = self._reference_hooks
        round_hooks = self._bus.hooks("on_round_end")
        fast_path = self._fast_path
        round_index = self._round
        ops = self.ops_executed
        tick_due = self._tick_due
        # The round's reference-batch spans (count, sum, longest), added
        # to the profiler in one call at the round's end.
        spans, spans_s, longest = 0, 0.0, 0.0
        # Only next_op() finishes a thread; counting its Nones keeps it exact.
        live = sum(not t.finished for t in threads)
        try:
            while live:
                progressed = False
                # The profiler is installed between rounds at the latest,
                # so one look per round serves every op in it.
                profiler = self._profiler
                for thread, cpu, task in lanes:
                    if thread.state is not runnable:
                        continue
                    if cpu is None:
                        cpu = cpu_for(thread, round_index)
                    op = thread.next_op()
                    if op is None:
                        live -= 1
                        # Finishing can release a barrier the rest are at.
                        if self._release_barriers(threads):
                            progressed = True
                        continue
                    if isinstance(op, MemBlock):
                        started = perf_counter() if profiler is not None else 0.0
                        cpu_obj = cpus[cpu]
                        vpage = op.vpage
                        reads = op.reads
                        writes = op.writes
                        entry = cpu_obj.tlb.lookup(vpage, writes > 0) if fast_path else None
                        if entry is None:
                            self.ops_executed = ops
                            self._mem_block(cpu, op, task, books)
                        else:
                            # FAST PATH: the cached entry proves the MMU
                            # would translate both halves without faulting,
                            # so no shootdown can land mid-block.  Charge
                            # the batch off the cached per-word costs, read
                            # and write halves apart so the float sums match
                            # the slow path bit for bit.  The counter updates
                            # are ReferenceCounters.record with the zero half
                            # dropped — same state, fewer calls.
                            writable = entry.writable_data
                            location = entry.location
                            if reads:
                                cost = reads * entry.fetch_us
                                cpu_obj.user_time_us += cost
                                if books:
                                    task_us[task] = task_us.get(task, 0.0) + cost
                                cpu_obj.all_refs.fetches[location] += reads
                                if writable:
                                    cpu_obj.data_refs.fetches[location] += reads
                            if writes:
                                cost = writes * entry.store_us
                                cpu_obj.user_time_us += cost
                                if books:
                                    task_us[task] = task_us.get(task, 0.0) + cost
                                cpu_obj.all_refs.stores[location] += writes
                                if writable:
                                    cpu_obj.data_refs.stores[location] += writes
                            if ref_hooks:
                                # OBSERVED ARM: one event per non-empty
                                # half, as the slow arm emits them.  The
                                # entry keeps the page id once resolved; it
                                # dies with the mapping, so it cannot go stale.
                                page_id = entry.page_id
                                if page_id is None:
                                    page_id = entry.page_id = self._page_id(vpage, task)
                                if reads:
                                    for hook in ref_hooks:
                                        hook(
                                            round_index, cpu, vpage, page_id,
                                            reads, 0, location, writable,
                                        )
                                if writes:
                                    for hook in ref_hooks:
                                        hook(
                                            round_index, cpu, vpage, page_id,
                                            0, writes, location, writable,
                                        )
                        if profiler is not None:
                            span = perf_counter() - started
                            spans += 1
                            spans_s += span
                            if span > longest:
                                longest = span
                    elif isinstance(op, Compute):
                        us = op.us
                        cpus[cpu].user_time_us += us
                        if books:
                            task_us[task] = task_us.get(task, 0.0) + us
                    elif isinstance(op, Barrier):
                        thread.state = ThreadState.WAITING
                        thread.waiting_on = op.name
                    elif isinstance(op, Syscall):
                        self._syscall(op, task)
                    elif isinstance(op, FreeObjectPages):
                        self._free_object(cpu, op, task)
                    else:
                        raise SimulationError(f"unknown operation {op!r}")
                    progressed = True
                    ops += 1
                    if ops >= tick_due or self._pump_pending:
                        self.ops_executed = ops
                        self._after_op()
                        tick_due = self._tick_due
                if spans:
                    profiler.add("reference_batch", spans_s, spans, longest)
                    spans, spans_s, longest = 0, 0.0, 0.0
                self.ops_executed = ops
                self._round = round_index = round_index + 1
                for hook in round_hooks:
                    hook(round_index - 1)
                if not progressed:
                    if self._release_barriers(threads):
                        continue
                    if any(
                        t.state is ThreadState.RUNNABLE and not t.finished
                        for t in threads
                    ):
                        continue
                    if not any(not t.finished for t in threads):
                        break
                    waiting = sorted(
                        {t.waiting_on for t in threads if t.waiting_on}
                    )
                    raise SimulationError(
                        f"deadlock: threads waiting on barriers {waiting}"
                    )
        finally:
            # A run that raises mid-round still reports what it ran.
            self.ops_executed = ops
            if spans:
                profiler.add("reference_batch", spans_s, spans, longest)
            if lanes and not books:  # neither arm booked a one-task run
                task_us[lanes[0][2]] = self._machine.total_user_time_us()
        self._bus.emit_run_end(self._round)
        return self._round if threads else 0

    # -- op execution ------------------------------------------------------

    def _after_op(self) -> None:
        """The injector pump and the policy tick: protocol activity that
        may invalidate translations, so it runs between ops.  Entered only
        when a pump is pending or the tick is due."""
        if self._pump_pending:
            # Op granularity, not just policy ticks: local copies on
            # small workloads live shorter than a tick, and a scheduled
            # frame failure must be able to catch one resident.
            injector = self._injector
            injector.pump(
                max(c.total_time_us for c in self._machine.cpus),
                self._faults.pmap.numa,
            )
            # wants_pump only ever goes False (the frame-failure cap is
            # absorbing), so profiles with nothing time-scheduled pay
            # one plain attribute check per op, not a property chain.
            self._pump_pending = injector.wants_pump
        if self.ops_executed >= self._tick_due:
            self._tick_due = self.ops_executed + self._policy_tick_ops
            profiler = self._profiler
            started = perf_counter() if profiler is not None else 0.0
            numa = self._faults.pmap.numa
            now = max(c.total_time_us for c in self._machine.cpus)
            numa.policy.tick(now)
            for page_id in numa.policy.take_invalidations():
                numa.invalidate_page_id(page_id, acting_cpu=0)
            if profiler is not None:
                profiler.add("policy_tick", perf_counter() - started)

    def _mem_block(
        self, cpu: int, op: MemBlock, task: int, books: bool
    ) -> None:
        """SLOW PATH: translate through the MMU, faulting as needed.

        Taken on a TLB miss (already counted: no second lookup here) and
        for every block when the fast path is off.  *books* says whether
        the run keeps per-task books (see :meth:`run`).
        """
        vpage = op.vpage
        _, _, writable = self._info_for(vpage, task)
        if op.reads:
            frame = self._resolve(cpu, vpage, AccessKind.READ, task)
            self._charge_refs(
                cpu, vpage, frame, op.reads, 0, writable, task, books
            )
        if op.writes:
            frame = self._resolve(cpu, vpage, AccessKind.WRITE, task)
            self._charge_refs(
                cpu, vpage, frame, 0, op.writes, writable, task, books
            )
        if self._fast_path:
            self._fill_tlb(cpu, vpage, writable)

    def _syscall(self, op: Syscall, task: int = 0) -> None:
        call = self._unix_master.effective_syscall(op)
        master = self._unix_master.master_cpu
        self._machine.cpu(master).charge_system(call.service_us)
        for vpage, reads, writes in call.touched:
            # Kernel references to user memory, issued from the master
            # processor.  They drive placement like any others but are
            # charged as system time and kept out of the user α counters.
            if reads:
                frame = self._resolve(master, vpage, AccessKind.READ, task)
                _, cost = self._timing.block_us_for(master, frame, reads, 0)
                self._machine.cpu(master).charge_system(cost)
            if writes:
                frame = self._resolve(master, vpage, AccessKind.WRITE, task)
                _, cost = self._timing.block_us_for(master, frame, 0, writes)
                self._machine.cpu(master).charge_system(cost)

    def _free_object(self, cpu: int, op: FreeObjectPages, task: int = 0) -> None:
        pool = self._handlers[task].pool
        vm_object = op.vm_object
        for offset in list(vm_object.resident.keys()):
            page = vm_object.resident_page(offset)
            if page is not None:
                pool.free(page, cpu)

    # -- helpers -----------------------------------------------------------

    def _resolve(
        self, cpu: int, vpage: int, kind: AccessKind, task: int = 0
    ) -> Frame:
        """Translate, faulting as needed; returns the frame accessed."""
        wanted = PROT_READ_WRITE if kind is AccessKind.WRITE else PROT_READ
        mmu = self._cpus[cpu].mmu
        bus = self._bus
        profiler = self._profiler
        for _ in range(MAX_FAULT_RESOLUTION_ATTEMPTS):
            try:
                return mmu.translate(vpage, wanted)
            except MMUFault:
                if self._fault_hooks:
                    bus.emit_fault(self._round, cpu, vpage, kind)
                # The simulated fault latency is the system time the
                # handling charges; sum over CPUs because protocol
                # actions (syncs, invalidations) can bill other
                # processors than the faulting one.  Tested after the
                # fault's listeners ran: one of them may have subscribed.
                want_latency = bool(self._fault_resolved_hooks)
                system_before = (
                    self._machine.total_system_time_us()
                    if want_latency
                    else 0.0
                )
                started = perf_counter() if profiler is not None else 0.0
                self._handlers[task].handle(cpu, vpage, kind)
                if profiler is not None:
                    profiler.add("fault_handling", perf_counter() - started)
                if want_latency:
                    system_after = self._machine.total_system_time_us()
                    bus.emit_fault_resolved(
                        self._round,
                        cpu,
                        vpage,
                        kind,
                        system_after - system_before,
                    )
        raise FaultResolutionError(
            f"fault on vpage {vpage} (cpu {cpu}, {kind.value}) did not "
            f"resolve after {MAX_FAULT_RESOLUTION_ATTEMPTS} attempts",
            cpu=cpu,
            vpage=vpage,
            attempts=MAX_FAULT_RESOLUTION_ATTEMPTS,
            details={"kind": kind.value},
        )

    def _charge_refs(
        self,
        cpu_id: int,
        vpage: int,
        frame: Frame,
        reads: int,
        writes: int,
        writable_data: bool,
        task: int,
        books: bool,
    ) -> None:
        # Distance-aware: on multi-level machines a same-socket remote
        # frame is charged at socket rates; on the flat ACE this is the
        # classic block_us expression, float for float.
        location, cost = self._timing.block_us_for(
            cpu_id, frame, reads, writes
        )
        cpu = self._cpus[cpu_id]
        cpu.charge_user(cost)
        # The fast arm's bookkeeping, a zero half skipped: the same state
        # as ReferenceCounters.record, without the calls.
        if books:
            task_us = self.task_user_us
            task_us[task] = task_us.get(task, 0.0) + cost
        if reads:
            cpu.all_refs.fetches[location] += reads
            if writable_data:
                cpu.data_refs.fetches[location] += reads
        if writes:
            cpu.all_refs.stores[location] += writes
            if writable_data:
                cpu.data_refs.stores[location] += writes
        if self._reference_hooks:
            event = (
                self._round, cpu_id, vpage, self._page_id(vpage, task),
                reads, writes, location, writable_data,
            )
            for hook in self._reference_hooks:
                hook(*event)

    def _page_id(self, vpage: int, task: int) -> int:
        """The logical page now resident behind *vpage*, for events."""
        vm_object, offset, _ = self._info_for(vpage, task)
        page = vm_object.resident_page(offset)  # type: ignore[attr-defined]
        return page.page_id if page is not None else -1

    def _fill_tlb(self, cpu_id: int, vpage: int, writable_data: bool) -> None:
        """Cache the now-established translation for the next block.

        Filled from the live MMU entry *after* the whole block resolved —
        a write fault mid-block may have moved the page, and the entry
        must describe where it ended up.  The cached protection is the
        MMU's full protection (not the access that faulted), so a read
        that established a writable mapping fast-paths later writes too.
        """
        mmu_entry = self._cpus[cpu_id].mmu.lookup(vpage)
        if mmu_entry is None:
            return
        frame = mmu_entry.frame
        # ref_costs hands back the per-word prices for this CPU/frame
        # edge — on multi-level machines a same-socket remote frame gets
        # socket rates, and the cached entry then charges them on every
        # fast-path block, bit-identical to the slow path.
        location, fetch_us, store_us = self._timing.ref_costs(cpu_id, frame)
        self._cpus[cpu_id].tlb.fill(
            vpage,
            frame,
            mmu_entry.protection,
            location,
            fetch_us,
            store_us,
            writable_data,
        )

    def _info_for(self, vpage: int, task: int = 0) -> Tuple[object, int, bool]:
        key = (task, vpage)
        info = self._vpage_info.get(key)
        if info is None:
            region, offset = self._handlers[task].space.resolve(vpage)
            info = (region.vm_object, offset, region.vm_object.writable_data)
            self._vpage_info[key] = info
        return info

    def _release_barriers(self, threads: List[CThread]) -> bool:
        """Release barriers; they synchronize within a task only.

        Two applications in a multiprogrammed mix may both use a barrier
        named "init" — they must not synchronize with each other.
        """
        released = False
        by_task: Dict[int, List[CThread]] = {}
        for thread in threads:
            by_task.setdefault(thread.task, []).append(thread)
        for group in by_task.values():
            live = [t for t in group if not t.finished]
            if not live or any(
                t.state is not ThreadState.WAITING for t in live
            ):
                continue
            names = {t.waiting_on for t in live}
            if len(names) != 1:
                raise SimulationError(
                    "deadlock: live threads of one task parked at "
                    f"different barriers {sorted(names)}"
                )
            for t in live:
                t.state = ThreadState.RUNNABLE
                t.waiting_on = None
            released = True
        return released
