"""Multiprogrammed application mixes.

The paper's introduction claims OS-level placement uniquely "address[es]
the locality needs of the entire application mix, a task that cannot be
accomplished through independent modification of individual
applications".  :func:`run_mix` makes that claim testable: several
applications run *simultaneously* on one machine — each in its own Mach
task (address space), all sharing the processors, the local memories, the
global memory pool, and a single NUMA manager + policy — and per-task
user time is attributed, so a mix run can be compared against each
application's standalone run.

The wiring is :func:`repro.sim.harness.build_simulation` given several
workloads — a single run is a mix of one — so everything a single run
gets (policy ``bind_machine``, ``REPRO_SANITIZE``, telemetry) a mix gets
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.policy import NUMAPolicy
from repro.core.stats import NUMAStats
from repro.machine.config import MachineConfig
from repro.obs.telemetry import Telemetry
from repro.sim.harness import build_simulation
from repro.workloads.base import Workload


@dataclass(frozen=True)
class TaskResult:
    """One application's share of a mix run."""

    task: int
    workload: str
    user_time_us: float

    @property
    def user_time_s(self) -> float:
        """User time in seconds."""
        return self.user_time_us / 1e6


@dataclass(frozen=True)
class MixResult:
    """Everything measured during one multiprogrammed run."""

    tasks: List[TaskResult]
    total_user_us: float
    total_system_us: float
    stats: NUMAStats
    rounds: int

    def task_named(self, workload: str) -> TaskResult:
        """The result for one application (first match by name)."""
        for task in self.tasks:
            if task.workload == workload:
                return task
        raise KeyError(workload)


def run_mix(
    workloads: List[Workload],
    policy: NUMAPolicy,
    *,
    n_processors: int = 7,
    machine_config: Optional[MachineConfig] = None,
    check_invariants: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> MixResult:
    """Run several applications concurrently on one machine."""
    sim = build_simulation(
        workloads,
        policy,
        n_processors=n_processors,
        machine_config=machine_config,
        check_invariants=check_invariants,
        telemetry=telemetry,
    )
    rounds = sim.run_threads(telemetry)
    return MixResult(
        tasks=[
            TaskResult(
                task=task,
                workload=workload.name,
                user_time_us=sim.engine.task_user_us.get(task, 0.0),
            )
            for task, workload in enumerate(workloads)
        ],
        total_user_us=sim.machine.total_user_time_us(),
        total_system_us=sim.machine.total_system_time_us(),
        stats=sim.numa.stats,
        rounds=rounds,
    )
