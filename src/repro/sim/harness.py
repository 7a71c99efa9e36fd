"""High-level run harness: build, run, and measure workloads.

:func:`build_simulation` wires workloads (one Mach task each), a policy
and a machine together; :func:`run_engine` executes the result and
:func:`collect_result` assembles a :class:`~repro.sim.result.RunResult`.
Every driver is those three steps: :func:`run_once` here,
:func:`repro.sim.mix.run_mix`, :func:`repro.faults.chaos.run_chaos` and
the declarative :class:`~repro.exp.spec.RunSpec`.
:func:`measure_placement` performs the paper's full Section 3.1
methodology for one application:

* ``Tnuma`` — the real policy on an N-processor machine;
* ``Tglobal`` — the all-writable-data-in-global baseline, same machine;
* ``Tlocal`` — a single thread on a single-processor machine, everything
  local.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

from repro.check.sanitizer import attach_sanitizer, maybe_attach_sanitizer
from repro.core.numa_manager import NUMAManager
from repro.core.policies import (
    AllGlobalPolicy,
    AllLocalPolicy,
    MoveThresholdPolicy,
)
from repro.core.policy import NUMAPolicy
from repro.machine.config import MachineConfig, ace_config
from repro.machine.machine import Machine
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Engine, EngineObserver
from repro.sim.result import CPUTimes, PlacementMeasurement, RunResult
from repro.threads.cthreads import CThread
from repro.threads.scheduler import AffinityScheduler, Scheduler
from repro.threads.unix_master import UnixMaster
from repro.vm.address_space import AddressSpace
from repro.vm.fault import FaultHandler
from repro.vm.page_pool import PagePool
from repro.vm.pmap import ACEPmap
from repro.workloads.base import BuildContext, Workload

SchedulerFactory = Callable[[int], Scheduler]

#: Virtual pages between consecutive tasks' bases.  The simulated MMUs
#: have no address-space identifiers, so shared vpage numbers would let
#: one task translate into another's frames.
TASK_VPAGE_STRIDE = 0x100000


@dataclass
class Simulation:
    """A fully wired simulation, exposed for tests and custom drivers."""

    machine: Machine
    numa: NUMAManager
    pool: PagePool
    pmap: ACEPmap
    engine: Engine
    #: Every task's threads, in task order.
    threads: List[CThread]
    #: One build context (and through it one address space) per Mach
    #: task, in task order; a single run has exactly one.
    contexts: List[BuildContext]
    #: The ``REPRO_SANITIZE``-attached :class:`ProtocolSanitizer`, when
    #: the environment opted this process in (``None`` otherwise).
    #: Chaos runs reuse it instead of attaching a second instance.
    sanitizer: object = None

    def run(self, telemetry: Optional[Telemetry] = None) -> RunResult:
        """Run the threads to completion and collect the result."""
        return collect_result(
            self, run_engine(self.engine, self.threads, telemetry)
        )


def build_simulation(
    workloads: Sequence[Workload],
    policy: NUMAPolicy,
    *,
    n_processors: int = 7,
    n_threads: Optional[int] = None,
    machine_config: Optional[MachineConfig] = None,
    scheduler_factory: Optional[SchedulerFactory] = None,
    unix_master: Optional[UnixMaster] = None,
    observer: Optional[EngineObserver] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
    injector: Optional["FaultInjector"] = None,
    fast_path: bool = True,
    sanitize: Optional[bool] = None,
) -> Simulation:
    """Assemble machine, VM, NUMA layer, and threads for one run.

    Each workload gets its own address space and fault handler (its own
    Mach task); all tasks share the machine, the logical page pool, and
    the NUMA manager, so their pages genuinely compete for local memory
    and the policy sees the whole mix's behaviour — the scenario the
    paper's introduction argues only the operating system can serve.  A
    single run is a mix of one.  ``n_threads`` is per task (default: one
    per processor).

    ``observer`` (the legacy single slot) and ``telemetry`` compose:
    both end up subscribed to the engine's event bus.  ``injector``
    wires a :class:`~repro.faults.injector.FaultInjector` into the NUMA
    manager's hot paths and the engine's policy tick (chaos runs).
    ``fast_path=False`` disables the engine's software-TLB fast path
    (simulated results are identical either way; the fast-path tests
    assert it).  ``sanitize`` overrides the
    ``REPRO_SANITIZE`` environment: ``None`` lets the environment
    decide, ``False`` never attaches (the race-fixture runs, which
    deliberately corrupt protocol state, use this), ``True`` always
    attaches.
    """
    if machine_config is None:
        machine_config = ace_config(n_processors)
    machine = Machine(machine_config)
    # Policies that watch the machine itself — interconnect contention,
    # bandit reward counters — declare a bind_machine hook; the policy
    # interface proper stays machine-free.
    bind = getattr(policy, "bind_machine", None)
    if bind is not None:
        bind(machine)
    numa = NUMAManager(machine, policy, check_invariants=check_invariants)
    pool = PagePool(numa)
    pmap = ACEPmap(numa)
    if n_threads is None:
        n_threads = machine.n_cpus
    contexts: List[BuildContext] = []
    handlers: List[FaultHandler] = []
    threads: List[CThread] = []
    for task, workload in enumerate(workloads):
        space = AddressSpace(
            name=workload.name,
            first_vpage=0x100 + task * TASK_VPAGE_STRIDE,
        )
        ctx = BuildContext(
            space=space,
            n_threads=n_threads,
            n_processors=machine.n_cpus,
            machine_config=machine_config,
        )
        contexts.append(ctx)
        handlers.append(FaultHandler(machine, space, pool, pmap))
        for body in workload.build(ctx):
            index = len(threads)
            threads.append(
                CThread(
                    name=f"{workload.name}-{index}",
                    index=index,
                    body=body,
                    task=task,
                )
            )
    scheduler = (
        scheduler_factory(machine.n_cpus)
        if scheduler_factory is not None
        else AffinityScheduler(machine.n_cpus)
    )
    engine = Engine(
        machine,
        handlers[0],
        scheduler,
        unix_master=unix_master,
        observer=observer,
        extra_handlers=dict(enumerate(handlers[1:], start=1)),
        fast_path=fast_path,
    )
    numa.bus = engine.bus
    if injector is not None:
        injector.bind(machine, engine.bus)
        numa.injector = injector
        engine.injector = injector
    if telemetry is not None:
        telemetry.attach(machine, numa, pool, engine)
    if sanitize is None:
        sanitizer = maybe_attach_sanitizer(numa, engine.bus)
    elif sanitize:
        sanitizer = attach_sanitizer(numa, engine.bus)
    else:
        sanitizer = None
    return Simulation(
        machine=machine,
        numa=numa,
        pool=pool,
        pmap=pmap,
        engine=engine,
        threads=threads,
        contexts=contexts,
        sanitizer=sanitizer,
    )


def run_engine(engine, threads, telemetry: Optional[Telemetry] = None) -> int:
    """Run *threads* to completion, with uniform telemetry handling.

    Every driver — single runs, mixes, chaos runs, batched specs — goes
    through this helper, so ``engine_run`` profiler spans and
    :meth:`~repro.obs.telemetry.Telemetry.finalize` happen the same way
    everywhere instead of only on :func:`run_once`'s telemetry branch.
    """
    if telemetry is not None:
        with telemetry.profiler.span("engine_run"):
            rounds = engine.run(threads)
        telemetry.finalize()
        return rounds
    return engine.run(threads)


def collect_result(sim: Simulation, rounds: int) -> RunResult:
    """Assemble the :class:`RunResult` for a finished simulation."""
    machine = sim.machine
    per_cpu = [
        CPUTimes(cpu=c.id, user_us=c.user_time_us, system_us=c.system_time_us)
        for c in machine.cpus
    ]
    data_refs = machine.cpus[0].data_refs
    all_refs = machine.cpus[0].all_refs
    for c in machine.cpus[1:]:
        data_refs = data_refs.merged_with(c.data_refs)
        all_refs = all_refs.merged_with(c.all_refs)
    return RunResult(
        workload=sim.contexts[0].space.name,
        policy=sim.numa.policy.name,
        n_processors=machine.n_cpus,
        n_threads=len(sim.threads),
        per_cpu=per_cpu,
        stats=sim.numa.stats,
        data_refs=data_refs,
        all_refs=all_refs,
        rounds=rounds,
        migrations=sim.engine.scheduler.migrations(),
    )


def run_once(
    workload: Workload,
    policy: NUMAPolicy,
    *,
    n_processors: int = 7,
    n_threads: Optional[int] = None,
    machine_config: Optional[MachineConfig] = None,
    scheduler_factory: Optional[SchedulerFactory] = None,
    unix_master: Optional[UnixMaster] = None,
    observer: Optional[EngineObserver] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
    fast_path: bool = True,
) -> RunResult:
    """Run *workload* under *policy* and collect the result."""
    sim = build_simulation(
        [workload],
        policy,
        n_processors=n_processors,
        n_threads=n_threads,
        machine_config=machine_config,
        scheduler_factory=scheduler_factory,
        unix_master=unix_master,
        observer=observer,
        check_invariants=check_invariants,
        telemetry=telemetry,
        fast_path=fast_path,
    )
    return sim.run(telemetry)


def measure_placement(
    workload: Workload,
    *,
    n_processors: int = 7,
    threshold: int = 4,
    machine_config: Optional[MachineConfig] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> PlacementMeasurement:
    """Run the paper's three measurements for one application.

    ``Tlocal`` runs with one thread on a one-processor machine under the
    always-LOCAL policy, exactly the paper's procedure for avoiding
    spin-lock time-slicing artifacts (Section 3.1).  ``telemetry``
    attaches to the Tnuma run only — that is the run whose dynamics the
    paper's tables describe.

    These are the same three runs :func:`repro.exp.grid.placement_specs`
    describes declaratively, so a ``measure_placement`` call and a
    batched sweep over the same application produce identical results.
    """
    numa_result = run_once(
        workload,
        MoveThresholdPolicy(threshold=threshold),
        n_processors=n_processors,
        machine_config=machine_config,
        check_invariants=check_invariants,
        telemetry=telemetry,
    )
    global_result = run_once(
        workload,
        AllGlobalPolicy(),
        n_processors=n_processors,
        machine_config=machine_config,
        check_invariants=check_invariants,
    )
    local_result = run_once(
        workload,
        AllLocalPolicy(),
        n_processors=1,
        n_threads=1,
        machine_config=(
            None if machine_config is None
            else machine_config.scaled(n_processors=1)
        ),
        check_invariants=check_invariants,
    )
    return PlacementMeasurement(
        workload=workload.name,
        g_over_l=workload.g_over_l,
        numa=numa_result,
        all_global=global_result,
        local=local_result,
    )
