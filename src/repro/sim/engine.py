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
entry) takes the slow path, where a miss is the MMU's ``None`` and runs
the machine-independent fault handler driving the NUMA protocol.  Each
half of a slow block is priced once, off the MMU entry it resolved, and
the last half fills the TLB from that entry.  Both paths charge
bit-identical simulated time: the TLB entry caches the very per-word
costs the slow arm charged, and protocol activity —
which is what could invalidate a translation mid-block — only ever runs
from the slow path's fault handling or between operations (policy ticks,
injector pumps), so a TLB hit guarantees the whole block is fault-free.
A shootdown therefore never lands mid-batch; it lands between batches,
splitting them exactly where the unbatched simulator would have faulted.

:meth:`Engine.run` is the one dispatch loop (DESIGN.md §10.2): a TLB hit
or a compute burst is consumed inside it, and it is left only for the
slow arm (a miss, without a second lookup), the rare op kinds, and
:meth:`Engine._after_op` when a pump is pending or the tick is due.  Its
lean arm runs whole rounds between ticks with ``next_op`` and the TLB
lookup inlined, unless a profiler, hook, pump, task book, moving
scheduler or class-level wrapper of either needs the general loop.

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
from typing import Dict, Iterator, List, Optional, Protocol, Tuple

from repro.core.state import AccessKind
from repro.errors import FaultResolutionError, SimulationError
from repro.machine.machine import Machine
from repro.machine.mmu import MMUEntry
from repro.machine.protection import PROT_READ, PROT_READ_WRITE
from repro.machine.timing import MemoryLocation
from repro.machine.tlb import SoftwareTLB
from repro.obs.events import EventBus
from repro.obs.profiling import PhaseProfiler
from repro.sim.ops import (
    Barrier, Compute, FreeObjectPages, MemBlock, Op, Syscall,
)
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

#: What the lean arm inlines.  A class-level wrapper of either (the
#: ledger's tracer) sends a run to the general loop, which calls it.
_STOCK = (CThread.next_op, SoftwareTLB.lookup)


def _handed_back(thread: CThread, op: Op, body: Iterator[Op]) -> Iterator[Op]:
    """Yield *op* once more, giving *thread* its own *body* back."""
    thread.body = body
    yield op


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
        # The lean arm's per-run conditions: the fast path, one task, the
        # stock per-op methods and a fixed CPU on every lane (a loop, so an
        # observed run pays no call for them).
        lean = fast_path and not books
        lean = lean and _STOCK == (CThread.next_op, SoftwareTLB.lookup)
        for _, cpu, _ in lanes:
            lean = lean and cpu is not None
        round_index = self._round
        ops = self.ops_executed
        tick_due = self._tick_due
        # The round's reference-batch spans (count, sum, longest), added
        # to the profiler in one call at the round's end.
        spans, spans_s, longest = 0, 0.0, 0.0
        # Only next_op() finishes a thread; counting its Nones keeps it exact.
        live = sum(not t.finished for t in threads)
        # The lane the round in hand resumes at, after the lean arm left it.
        start = 0
        try:
            while live:
                progressed = False
                # The profiler is installed between rounds at the latest,
                # so one look per round serves every op in it.
                profiler = self._profiler
                if lean and profiler is None and not (
                    ref_hooks or round_hooks or self._pump_pending
                ):
                    self.ops_executed = ops
                    try:
                        start, progressed = self._lean_rounds(lanes)
                    finally:
                        ops, round_index = self.ops_executed, self._round
                for thread, cpu, task in lanes[start:] if start else lanes:
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
                start = 0
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

    def _lean_rounds(self, lanes: list) -> Tuple[int, bool]:
        """The lean arm of :meth:`run` (DESIGN.md §10.2): whole rounds,
        nothing asked per op.  Returns the lane the general loop resumes
        the round in hand at (0 between rounds) and whether that round
        has progressed."""
        cpus = self._cpus
        active = [
            (k, thread.body, cpu, cpus[cpu], tlb, tlb.cached.get)
            for k, (thread, cpu, _) in enumerate(lanes)
            if thread.state is ThreadState.RUNNABLE
            for tlb in (cpus[cpu].tlb,)
        ]
        width = len(active)
        # As many whole rounds as keep the policy tick in the general loop.
        rounds = (self._tick_due - self.ops_executed - 1) // width if width else 0
        task = lanes[0][2]
        ref_hooks = self._reference_hooks
        round_hooks = self._bus.hooks("on_round_end")
        # Rounds done, the lane of the op in hand (-1 between rounds), and
        # whether that op is in the slow arm, where it may raise.
        done, k, slow = 0, -1, False
        try:
            while done < rounds:
                for k, body, cpu, cpu_obj, tlb, probe in active:
                    try:
                        op = next(body)
                    except StopIteration:
                        op = None
                        break
                    kind = op.__class__
                    if kind is MemBlock:
                        vpage = op.vpage
                        writes = op.writes
                        entry = probe(vpage)
                        if entry is None or (writes and not entry.writable):
                            tlb.misses += 1
                            slow = True
                            self._mem_block(cpu, op, task, False)
                            slow = False
                            continue
                        if ref_hooks:  # subscribed mid-round
                            break
                        tlb.hits += 1
                        reads = op.reads
                        location = entry.location
                        writable = entry.writable_data
                        if reads:
                            cpu_obj.user_time_us += reads * entry.fetch_us
                            cpu_obj.all_refs.fetches[location] += reads
                            if writable:
                                cpu_obj.data_refs.fetches[location] += reads
                        if writes:
                            cpu_obj.user_time_us += writes * entry.store_us
                            cpu_obj.all_refs.stores[location] += writes
                            if writable:
                                cpu_obj.data_refs.stores[location] += writes
                    elif kind is Compute:
                        cpu_obj.user_time_us += op.us
                    else:
                        break
                else:
                    done, k = done + 1, -1
                    # Something to serve appeared: the general loop closes
                    # this round, its round-end hooks included.
                    if ref_hooks or round_hooks or self._pump_pending or (
                        self._profiler is not None
                    ):
                        return len(lanes), True
                    self._round += 1
                    continue
                # A finish, a rare op or a hit someone now listens to: the
                # general loop pulls again and finishes the thread or runs
                # the op, so the op is handed back.
                if op is not None:
                    thread = lanes[k][0]
                    thread.body = _handed_back(thread, op, body)
                return k, k > active[0][0]
            return 0, False
        finally:
            ops = done * width
            for lane, *_ in active:
                ops += lane < k
                lanes[lane][0].ops_executed += done + (
                    lane < k or (lane == k and slow)
                )
            self.ops_executed += ops

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
        reads = op.reads
        writes = op.writes
        _, _, writable = self._info_for(vpage, task)
        fill = self._fast_path
        if reads:
            entry = self._resolve(cpu, vpage, AccessKind.READ, task)
            self._charge_half(
                cpu, entry, reads, 0, writable, task, books, fill and not writes
            )
        if writes:
            entry = self._resolve(cpu, vpage, AccessKind.WRITE, task)
            self._charge_half(cpu, entry, 0, writes, writable, task, books, fill)

    def _syscall(self, op: Syscall, task: int = 0) -> None:
        call = self._unix_master.effective_syscall(op)
        master = self._unix_master.master_cpu
        cpu = self._cpus[master]
        cpu.charge_system(call.service_us)
        ref_costs = self._timing.ref_costs
        for vpage, reads, writes in call.touched:
            # Kernel references to user memory, issued from the master
            # processor.  They drive placement like any others but are
            # charged as system time and kept out of the user α counters.
            if reads:
                entry = self._resolve(master, vpage, AccessKind.READ, task)
                cpu.charge_system(reads * ref_costs(master, entry.frame)[1])
            if writes:
                entry = self._resolve(master, vpage, AccessKind.WRITE, task)
                cpu.charge_system(writes * ref_costs(master, entry.frame)[2])

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
    ) -> MMUEntry:
        """Translate, faulting as needed; returns the live MMU entry.

        A miss is ``translate``'s ``None``.  The handler runs at most
        ``MAX_FAULT_RESOLUTION_ATTEMPTS`` times, and each run is checked
        by a translate of its own, the last one included.
        """
        wanted = PROT_READ_WRITE if kind is AccessKind.WRITE else PROT_READ
        translate = self._cpus[cpu].mmu.translate
        attempts = 0
        while (entry := translate(vpage, wanted)) is None:
            if attempts == MAX_FAULT_RESOLUTION_ATTEMPTS:
                raise FaultResolutionError(
                    f"fault on vpage {vpage} (cpu {cpu}, {kind.value}) did "
                    f"not resolve after {attempts} attempts",
                    cpu=cpu,
                    vpage=vpage,
                    attempts=attempts,
                    details={"kind": kind.value},
                )
            attempts += 1
            if self._fault_hooks:
                self._bus.emit_fault(self._round, cpu, vpage, kind)
            # The simulated fault latency is the system time the handling
            # charges; sum over CPUs because protocol actions (syncs,
            # invalidations) can bill other processors than the faulting
            # one.  Tested after the fault's listeners ran: one of them
            # may have subscribed.
            want_latency = bool(self._fault_resolved_hooks)
            system_before = (
                self._machine.total_system_time_us() if want_latency else 0.0
            )
            profiler = self._profiler
            started = perf_counter() if profiler is not None else 0.0
            self._handlers[task].handle(cpu, vpage, kind)
            if profiler is not None:
                profiler.add("fault_handling", perf_counter() - started)
            if want_latency:
                system_after = self._machine.total_system_time_us()
                self._bus.emit_fault_resolved(
                    self._round, cpu, vpage, kind, system_after - system_before
                )
        return entry

    def _charge_half(
        self,
        cpu_id: int,
        entry: MMUEntry,
        reads: int,
        writes: int,
        writable_data: bool,
        task: int,
        books: bool,
        fill: bool,
    ) -> None:
        """Charge one half of a block (*reads* or *writes* is 0) at the
        prices of the frame *entry* maps, and with *fill* cache *entry*
        for the next block.

        One ``ref_costs`` call prices both.  Distance-aware: on
        multi-level machines a same-socket remote frame gets socket
        rates, which the cached entry then charges on every fast-path
        block, bit-identical to this arm.  The block's last half fills,
        from the entry it resolved: a write fault may have moved the page,
        and the TLB must describe where it ended up.  The cached
        protection is the MMU's full protection (not the access that
        faulted), so a read that established a writable mapping
        fast-paths later writes too.
        """
        frame = entry.frame
        location, fetch_us, store_us = self._timing.ref_costs(cpu_id, frame)
        cpu = self._cpus[cpu_id]
        # The fast arm's bookkeeping, the zero half skipped: the same state
        # as ReferenceCounters.record, without the calls.
        if reads:
            cost = reads * fetch_us
            cpu.all_refs.fetches[location] += reads
            if writable_data:
                cpu.data_refs.fetches[location] += reads
        else:
            cost = writes * store_us
            cpu.all_refs.stores[location] += writes
            if writable_data:
                cpu.data_refs.stores[location] += writes
        cpu.charge_user(cost)
        if books:
            task_us = self.task_user_us
            task_us[task] = task_us.get(task, 0.0) + cost
        vpage = entry.vpage
        if self._reference_hooks:
            event = (
                self._round, cpu_id, vpage, self._page_id(vpage, task),
                reads, writes, location, writable_data,
            )
            for hook in self._reference_hooks:
                hook(*event)
        if fill:
            cpu.tlb.fill(
                vpage, frame, entry.protection, location, fetch_us, store_us,
                writable_data,
            )

    def _page_id(self, vpage: int, task: int) -> int:
        """The logical page now resident behind *vpage*, for events."""
        vm_object, offset, _ = self._info_for(vpage, task)
        page = vm_object.resident_page(offset)  # type: ignore[attr-defined]
        return page.page_id if page is not None else -1

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
