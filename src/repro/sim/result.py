"""Result records: what a run, a three-run measurement or a chaos run produced.

Plain data with lossless ``as_dict``/``from_dict`` views.  The records
live here, away from the engine and the chaos harness that fill them in,
so that reading one back — a cache hit, a report — imports neither.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.stats import NUMAStats
from repro.machine.cpu import ReferenceCounters
from repro.machine.timing import MemoryLocation

#: Microseconds per second, for the human-facing properties.
_US_PER_S = 1_000_000.0


@dataclass(frozen=True)
class CPUTimes:
    """User/system split for one processor."""

    cpu: int
    user_us: float
    system_us: float

    @property
    def total_us(self) -> float:
        """User plus system time."""
        return self.user_us + self.system_us

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (lossless; see :meth:`from_dict`)."""
        return {
            "cpu": self.cpu,
            "user_us": self.user_us,
            "system_us": self.system_us,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CPUTimes":
        """Rebuild from an :meth:`as_dict` view."""
        return cls(
            cpu=int(data["cpu"]),
            user_us=float(data["user_us"]),
            system_us=float(data["system_us"]),
        )


@dataclass(frozen=True)
class RunResult:
    """Everything measured during one run of a workload under one policy.

    ``user_time_us`` is *total user time across all processors* — the
    paper's T metric (Section 3.1); ``system_time_us`` is the S of
    Table 4.  ``measured_alpha`` is the directly observed fraction of
    writable-data references that hit local memory, which the paper could
    only infer from times (Equation 4); both are reported so Table 3 can
    show model-recovered α next to ground truth.
    """

    workload: str
    policy: str
    n_processors: int
    n_threads: int
    per_cpu: List[CPUTimes]
    stats: NUMAStats
    data_refs: ReferenceCounters
    all_refs: ReferenceCounters
    rounds: int
    migrations: int = 0

    @property
    def user_time_us(self) -> float:
        """Total user time across processors, microseconds."""
        return sum(t.user_us for t in self.per_cpu)

    @property
    def system_time_us(self) -> float:
        """Total system time across processors, microseconds."""
        return sum(t.system_us for t in self.per_cpu)

    @property
    def user_time_s(self) -> float:
        """Total user time in seconds (Table 3 units)."""
        return self.user_time_us / _US_PER_S

    @property
    def system_time_s(self) -> float:
        """Total system time in seconds (Table 4 units)."""
        return self.system_time_us / _US_PER_S

    @property
    def measured_alpha(self) -> Optional[float]:
        """Observed α: local writable-data references / all such references.

        ``None`` when the workload made no references to writable data
        (the paper marks ParMult's α "na" for the same reason).
        """
        total = self.data_refs.total()
        if total == 0:
            return None
        return self.data_refs.total_to(MemoryLocation.LOCAL) / total

    @property
    def store_fraction(self) -> float:
        """Fraction of all user references that were stores."""
        total = self.all_refs.total()
        if total == 0:
            return 0.0
        stores = sum(self.all_refs.stores.values())
        return stores / total

    def as_dict(self) -> Dict[str, object]:
        """Deterministically ordered, JSON-friendly view of the run.

        Together with :meth:`from_dict` this is a lossless round trip —
        the experiment cache (:mod:`repro.exp.cache`) persists exactly
        this dictionary, and floats survive byte-identically because
        :mod:`json` prints the shortest round-trippable representation.
        """
        return {
            "workload": self.workload,
            "policy": self.policy,
            "n_processors": self.n_processors,
            "n_threads": self.n_threads,
            "per_cpu": [t.as_dict() for t in self.per_cpu],
            "stats": self.stats.as_dict(),
            "data_refs": self.data_refs.as_dict(),
            "all_refs": self.all_refs.as_dict(),
            "rounds": self.rounds,
            "migrations": self.migrations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from an :meth:`as_dict` view."""
        return cls(
            workload=str(data["workload"]),
            policy=str(data["policy"]),
            n_processors=int(data["n_processors"]),
            n_threads=int(data["n_threads"]),
            per_cpu=[CPUTimes.from_dict(t) for t in data["per_cpu"]],
            stats=NUMAStats.from_dict(data["stats"]),
            data_refs=ReferenceCounters.from_dict(data["data_refs"]),
            all_refs=ReferenceCounters.from_dict(data["all_refs"]),
            rounds=int(data["rounds"]),
            migrations=int(data.get("migrations", 0)),
        )

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical simulated runs."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    def summary(self) -> str:
        """One-line human-readable summary."""
        alpha = self.measured_alpha
        alpha_text = "na" if alpha is None else f"{alpha:.2f}"
        return (
            f"{self.workload} [{self.policy}] on {self.n_processors}p: "
            f"user {self.user_time_s:.3f}s system {self.system_time_s:.3f}s "
            f"alpha {alpha_text} moves {self.stats.moves}"
        )


@dataclass(frozen=True)
class PlacementMeasurement:
    """The three runs of the paper's methodology for one application."""

    workload: str
    g_over_l: float
    numa: RunResult
    all_global: RunResult
    local: RunResult

    @property
    def t_numa_s(self) -> float:
        """Tnuma in seconds."""
        return self.numa.user_time_s

    @property
    def t_global_s(self) -> float:
        """Tglobal in seconds."""
        return self.all_global.user_time_s

    @property
    def t_local_s(self) -> float:
        """Tlocal in seconds."""
        return self.local.user_time_s


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
    #: Fault-injection ledger
    #: (:meth:`repro.faults.injector.FaultStats.as_dict`).
    faults: Dict[str, object] = field(default_factory=dict)
    #: NUMA manager counters (:meth:`NUMAStats.as_dict`).
    numa: Dict[str, int] = field(default_factory=dict)
    #: Software-TLB counters summed over CPUs
    #: (:meth:`~repro.machine.machine.Machine.tlb_counters`); frame-loss
    #: recovery shows up here as cross-CPU shootdowns.
    tlb: Dict[str, int] = field(default_factory=dict)
    #: Race-detector counters (``races_*``), when a detector observed
    #: the run — either the sanitizer's raising detector or an explicit
    #: collecting one passed to ``run_chaos``.  Empty otherwise.
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
