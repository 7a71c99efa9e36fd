"""Harness chaos: deterministic faults for the orchestrator itself.

:mod:`repro.faults.plan` breaks the *simulated machine*; this module
breaks the *experiment harness* — worker processes are killed mid-spec,
workers hang past their supervision timeout, and freshly written result
cache entries are corrupted on disk.  The supervision layer
(:mod:`repro.exp.supervise`) and the batch orchestrator consult a
:class:`HarnessChaosPlan` at well-defined points and must recover from
everything it fires; ``benchmarks/bench_resilience.py`` and the CI
resilience job assert the recovery contract: **zero lost specs, zero
double-executed specs, byte-identical results** under every profile.

Determinism works differently here than in :class:`~repro.faults.plan.
FaultPlan`: a process pool completes futures in host-dependent order, so
a single shared RNG stream would make chaos decisions depend on timing.
Every decision is therefore keyed by ``(seed, profile, fingerprint,
attempt)`` through its own derived RNG — the same spec attempt draws the
same fate in every run, regardless of scheduling order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.registry import Registry


class HarnessChaosError(SimulationError):
    """A chaos action fired in-process (serial mode's stand-in for a
    worker kill — a real pool worker dies by signal instead)."""


@dataclass(frozen=True)
class HarnessChaosProfile:
    """Rates for one named harness-chaos scenario.

    Rates are per-spec probabilities in [0, 1].  All actions fire only
    on a spec's **first** attempt (``fire_below_attempt``), which both
    bounds the fault budget per spec and guarantees convergence: any
    supervision policy allowing at least two attempts finishes every
    spec.
    """

    name: str
    #: Probability that a spec's worker is killed (SIGKILL) mid-spec.
    kill_rate: float = 0.0
    #: Probability that a spec's worker hangs before executing.
    hang_rate: float = 0.0
    #: How long a hung worker sleeps, host seconds (must exceed the
    #: supervisor's per-spec timeout for the hang to be observable).
    hang_s: float = 30.0
    #: Probability that a spec's fresh cache entry is corrupted on disk
    #: right after the orchestrator writes it.
    corrupt_rate: float = 0.0
    #: Attempts below which actions may fire (1 = first attempt only).
    fire_below_attempt: int = 2

    def validate(self) -> None:
        """Reject out-of-range rates early, with a clear message."""
        for field_name in ("kill_rate", "hang_rate", "corrupt_rate"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"harness profile {self.name!r}: {field_name} must be "
                    f"in [0, 1], got {value}"
                )
        if self.hang_s < 0:
            raise ConfigurationError(
                f"harness profile {self.name!r}: hang_s cannot be negative"
            )


#: The named harness-chaos profiles ``repro-numa batch --harness-chaos``
#: exposes.  ``none`` wires the machinery but fires nothing (the
#: overhead baseline).
HARNESS_PROFILES = Registry("harness-chaos profile", {
    "none": HarnessChaosProfile(name="none"),
    "worker-kill": HarnessChaosProfile(name="worker-kill", kill_rate=0.35),
    "worker-hang": HarnessChaosProfile(
        name="worker-hang", hang_rate=0.35, hang_s=30.0
    ),
    "cache-corrupt": HarnessChaosProfile(
        name="cache-corrupt", corrupt_rate=0.5
    ),
    "mayhem": HarnessChaosProfile(
        name="mayhem",
        kill_rate=0.2,
        hang_rate=0.2,
        hang_s=30.0,
        corrupt_rate=0.3,
    ),
})


class HarnessChaosPlan:
    """Seeded, order-independent chaos schedule for one batch.

    Unlike the simulated-machine plan, decisions are pure functions of
    ``(seed, profile, fingerprint, attempt)`` — scheduling order cannot
    change a spec's fate.  ``fired`` tallies what actually fired, for
    the batch summary (informational; the tally depends on how many
    attempts the supervisor made, the decisions themselves do not).
    """

    def __init__(self, profile: HarnessChaosProfile, seed: int = 0) -> None:
        profile.validate()
        self.profile = profile
        self.seed = seed
        #: Actions fired, by name ("kill", "hang", "corrupt").
        self.fired: Dict[str, int] = {"kill": 0, "hang": 0, "corrupt": 0}

    def _draw(self, fingerprint: str, attempt: int, what: str) -> float:
        """One deterministic uniform draw for a keyed decision."""
        key = f"{self.seed}:{self.profile.name}:{fingerprint}:{attempt}:{what}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return random.Random(digest).random()

    def worker_action(
        self, fingerprint: str, attempt: int
    ) -> Optional[Dict[str, object]]:
        """What happens to the worker executing *fingerprint*'s attempt.

        Returns ``None`` (nothing), ``{"kill": True}`` (the worker
        SIGKILLs itself mid-spec), or ``{"hang_s": x}`` (the worker
        sleeps *x* host seconds before executing — a hang, from the
        supervisor's point of view).  Kill wins over hang when both
        would fire.  The tally in :attr:`fired` is updated here, so ask
        exactly once per submission.
        """
        if attempt >= self.profile.fire_below_attempt:
            return None
        if (
            self.profile.kill_rate > 0.0
            and self._draw(fingerprint, attempt, "kill")
            < self.profile.kill_rate
        ):
            self.fired["kill"] += 1
            return {"kill": True}
        if (
            self.profile.hang_rate > 0.0
            and self._draw(fingerprint, attempt, "hang")
            < self.profile.hang_rate
        ):
            self.fired["hang"] += 1
            return {"hang_s": self.profile.hang_s}
        return None

    def would_disturb(self, fingerprint: str, attempt: int) -> bool:
        """Whether :meth:`worker_action` would fire, without tallying.

        Lets tests and benches pick seeds that provably exercise the
        recovery paths.
        """
        if attempt >= self.profile.fire_below_attempt:
            return False
        return (
            self.profile.kill_rate > 0.0
            and self._draw(fingerprint, attempt, "kill")
            < self.profile.kill_rate
        ) or (
            self.profile.hang_rate > 0.0
            and self._draw(fingerprint, attempt, "hang")
            < self.profile.hang_rate
        )

    def corrupts_entry(self, fingerprint: str) -> bool:
        """Whether *fingerprint*'s fresh cache entry gets corrupted.

        Decided once per fingerprint (not per attempt): corruption
        happens after a result lands, and a result lands exactly once.
        """
        if self.profile.corrupt_rate <= 0.0:
            return False
        if self._draw(fingerprint, 0, "corrupt") < self.profile.corrupt_rate:
            self.fired["corrupt"] += 1
            return True
        return False

    def corrupt_file(self, path: Path) -> None:
        """Damage a cache entry the way a crashed writer would.

        Truncates to half: the file still exists, still ends mid-JSON,
        and must read as a *miss* (and scan as ``corrupt``) — never as
        an exception or a wrong result.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return
        path.write_bytes(raw[: max(1, len(raw) // 2)])


def make_harness_plan(
    profile_name: str, seed: int = 0
) -> HarnessChaosPlan:
    """Build a plan for a named profile (the CLI's entry point)."""
    return HarnessChaosPlan(HARNESS_PROFILES.resolve(profile_name), seed)
