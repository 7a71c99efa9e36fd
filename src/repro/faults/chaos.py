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

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.check.races import RaceDetector, attach_detector
from repro.check.sanitizer import attach_sanitizer, sanitizer_enabled
from repro.core.policies import MoveThresholdPolicy
from repro.core.policy import NUMAPolicy
from repro.faults.injector import FaultInjector, RetryPolicy, make_injector
from repro.machine.config import MachineConfig
from repro.obs.telemetry import Telemetry
from repro.sim.harness import build_simulation, run_engine
from repro.workloads.base import Workload


@dataclass
class ChaosReport:
    """Structured recovery summary for one chaos run."""

    workload: str
    policy: str
    profile: str
    seed: int
    n_processors: int
    rounds: int
    sanitized: bool
    #: Sanitizer checks performed (0 when ``sanitized`` is False).
    sanitizer_checks: int
    #: Fault-injection ledger (:meth:`FaultStats.as_dict`).
    faults: Dict[str, object] = field(default_factory=dict)
    #: NUMA manager counters (:meth:`NUMAStats.as_dict`).
    numa: Dict[str, int] = field(default_factory=dict)
    #: Software-TLB counters summed over CPUs
    #: (:meth:`~repro.machine.machine.Machine.tlb_counters`); frame-loss
    #: recovery shows up here as cross-CPU shootdowns.
    tlb: Dict[str, int] = field(default_factory=dict)
    #: Race-detector counters (``races_*``), when a detector observed
    #: the run — either the sanitizer's raising detector or an explicit
    #: collecting one passed to :func:`run_chaos`.  Empty otherwise.
    races: Dict[str, int] = field(default_factory=dict)
    #: Pages left pinned global by degradation at run end.
    degraded_pages: int = 0
    #: Local frames offline at run end.
    offline_frames: int = 0
    user_time_us: float = 0.0
    system_time_us: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Deterministically ordered flat view (same seed → same dict)."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "profile": self.profile,
            "seed": self.seed,
            "n_processors": self.n_processors,
            "rounds": self.rounds,
            "sanitized": self.sanitized,
            "sanitizer_checks": self.sanitizer_checks,
            "faults": dict(self.faults),
            "numa": dict(self.numa),
            "tlb": dict(self.tlb),
            "races": dict(self.races),
            "degraded_pages": self.degraded_pages,
            "offline_frames": self.offline_frames,
            "user_time_us": round(self.user_time_us, 3),
            "system_time_us": round(self.system_time_us, 3),
        }

    def to_json(self) -> str:
        """Canonical JSON: the byte-identical artifact CI compares."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosReport":
        """Rebuild a report from an :meth:`as_dict` view (cache loads)."""
        return cls(
            workload=str(data["workload"]),
            policy=str(data["policy"]),
            profile=str(data["profile"]),
            seed=int(data["seed"]),
            n_processors=int(data["n_processors"]),
            rounds=int(data["rounds"]),
            sanitized=bool(data["sanitized"]),
            sanitizer_checks=int(data["sanitizer_checks"]),
            faults=dict(data["faults"]),
            numa=dict(data["numa"]),
            tlb=dict(data["tlb"]),
            # .get(): cached reports predating the race detector lack it.
            races=dict(data.get("races", {})),
            degraded_pages=int(data["degraded_pages"]),
            offline_frames=int(data["offline_frames"]),
            user_time_us=float(data["user_time_us"]),
            system_time_us=float(data["system_time_us"]),
        )


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
    caller-owned (typically collecting) :class:`RaceDetector`; without
    one, sanitized runs still race-check through the sanitizer's own
    raising detector, and either way the ``races_*`` counters land in
    the report.
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
