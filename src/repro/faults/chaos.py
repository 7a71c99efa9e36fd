"""The chaos harness: one workload, one fault profile, one seed.

:func:`run_chaos` builds a full simulation with a
:class:`~repro.faults.injector.FaultInjector` wired into the NUMA
manager's hot paths and the engine's policy tick, attaches the PR 2
protocol sanitizer (on by default — a chaos run that does not check its
recoveries proves nothing), runs the workload to completion, and returns
a :class:`ChaosReport` whose :meth:`ChaosReport.as_dict` /
:meth:`ChaosReport.to_json` views are deterministic: same workload,
profile, and seed → byte-identical summaries.
"""

from __future__ import annotations

from typing import Optional

from repro.check.races import RaceDetector, attach_detector
from repro.check.sanitizer import attach_sanitizer, sanitizer_enabled
from repro.core.policies import MoveThresholdPolicy
from repro.core.policy import NUMAPolicy
from repro.faults.injector import FaultInjector, RetryPolicy, make_injector
from repro.machine.config import MachineConfig
from repro.obs.telemetry import Telemetry
from repro.sim.harness import build_simulation, run_engine
from repro.sim.result import ChaosReport
from repro.workloads.base import Workload


def run_chaos(
    workload: Workload,
    profile_name: str,
    seed: int = 0,
    n_processors: int = 7,
    policy: Optional[NUMAPolicy] = None,
    sanitize: bool = True,
    retry: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    telemetry: Optional[Telemetry] = None,
    detector: Optional["RaceDetector"] = None,
    machine_config: Optional["MachineConfig"] = None,
) -> ChaosReport:
    """Run *workload* under a named fault profile and summarize recovery.

    ``sanitize`` attaches the protocol sanitizer regardless of the
    ``REPRO_SANITIZE`` environment (if the environment already opted the
    process in, the harness-attached instance is reused rather than
    doubled).  Any :class:`~repro.errors.ProtocolViolation` a recovery
    provokes propagates to the caller — a chaos run is a *test*.
    ``telemetry`` attaches the standard facade, so chaos runs get the
    same profiled ``engine_run`` span and finalized gauges as
    :func:`~repro.sim.harness.run_once`.  ``detector`` attaches a
    caller-owned (typically collecting) :class:`RaceDetector`, which on a
    sanitized run also replaces the sanitizer's own; without one,
    sanitized runs still race-check through the sanitizer's own raising
    detector, and either way the ``races_*`` counters land in the report.
    """
    if injector is None:
        injector = make_injector(profile_name, seed, retry)
    if policy is None:
        policy = MoveThresholdPolicy()
    sim = build_simulation(
        [workload],
        policy,
        n_processors=n_processors,
        machine_config=machine_config,
        telemetry=telemetry,
        injector=injector,
    )
    sanitizer = sim.sanitizer  # the REPRO_SANITIZE-attached instance
    if sanitize and sanitizer is None:
        sanitizer = attach_sanitizer(sim.numa, sim.engine.bus)
    race_detector = detector
    if race_detector is not None:
        if sanitizer is not None:
            # One detector serves the run: the caller's takes every CPU's
            # TLB/MMU observer slot, so it replaces the sanitizer's own.
            sim.engine.bus.unsubscribe(sanitizer.races)
            sanitizer.races = race_detector
        attach_detector(sim.numa, sim.engine.bus, detector=race_detector)
    elif sanitizer is not None:
        race_detector = sanitizer.races
    rounds = run_engine(sim.engine, sim.threads, telemetry)
    if race_detector is not None and telemetry is not None:
        race_detector.publish_metrics(telemetry.registry)
    machine = sim.machine
    offline = sum(
        machine.memory.local_offline(cpu) for cpu in machine.config.cpus
    )
    return ChaosReport(
        workload=workload.name,
        policy=policy.name,
        profile=injector.plan.profile.name,
        seed=injector.plan.seed,
        n_processors=machine.n_cpus,
        rounds=rounds,
        sanitized=sanitize or sanitizer_enabled(),
        sanitizer_checks=sanitizer.checks if sanitizer is not None else 0,
        faults=injector.stats.as_dict(),
        numa=sim.numa.stats.as_dict(),
        tlb=machine.tlb_counters(),
        races=(
            race_detector.counters() if race_detector is not None else {}
        ),
        degraded_pages=len(sim.numa.degraded_pages),
        offline_frames=offline,
        user_time_us=machine.total_user_time_us(),
        system_time_us=machine.total_system_time_us(),
    )
