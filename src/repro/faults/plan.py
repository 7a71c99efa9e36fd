"""Deterministic fault schedules: what goes wrong, and when.

A :class:`FaultPlan` is the *decision* half of the fault-injection
subsystem: given a named :class:`FaultProfile` and a seed it answers, at
each injection point, whether a fault fires there.  All randomness comes
from one seeded :class:`random.Random`; all scheduling is in **simulated
microseconds** (the engine's ``max`` over per-CPU charged time), never
the wall clock, so two runs with the same workload, profile, and seed
inject byte-identical fault sequences.

The plan never touches frames, pages, or the bus — that is the
:class:`~repro.faults.injector.FaultInjector`'s job — which keeps the
schedule trivially unit-testable.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.registry import Registry

T = TypeVar("T")


class FaultKind(enum.Enum):
    """The injectable fault classes."""

    #: A block transfer (page copy or sync) fails transiently.
    TRANSFER_FAIL = "transfer-fail"
    #: A local frame fails permanently (ECC-style) and goes offline.
    FRAME_FAIL = "frame-fail"
    #: A directory/protocol message is delayed on the IPC bus.
    MESSAGE_DELAY = "message-delay"
    #: A local memory suffers a transient allocation-pressure spike.
    PRESSURE_SPIKE = "pressure-spike"


@dataclass(frozen=True)
class FaultProfile:
    """Rates and intervals for one named chaos scenario.

    Rates are per-injection-point probabilities in [0, 1]; intervals are
    mean simulated microseconds between scheduled events (0 disables
    that fault class entirely, and the plan then never draws from the
    RNG for it, so profiles with a class disabled stay deterministic
    relative to each other).
    """

    name: str
    #: Probability that one block-transfer attempt fails.
    transfer_fail_rate: float = 0.0
    #: Mean simulated µs between permanent local-frame failures.
    frame_fail_interval_us: float = 0.0
    #: Hard cap on frame failures per run (a machine that loses frames
    #: without bound stops being a memory-management experiment).
    max_frame_failures: int = 0
    #: Probability that one directory operation is delayed.
    message_delay_rate: float = 0.0
    #: Extra simulated µs charged when a message is delayed.
    message_delay_us: float = 0.0
    #: Mean simulated µs between local-memory pressure spikes.
    pressure_interval_us: float = 0.0
    #: How long one pressure spike lasts, simulated µs.
    pressure_duration_us: float = 0.0

    def validate(self) -> None:
        """Reject out-of-range rates early, with a clear message."""
        for field_name in ("transfer_fail_rate", "message_delay_rate"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"profile {self.name!r}: {field_name} must be in "
                    f"[0, 1], got {value}"
                )
        for field_name in (
            "frame_fail_interval_us",
            "message_delay_us",
            "pressure_interval_us",
            "pressure_duration_us",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(
                    f"profile {self.name!r}: {field_name} cannot be negative"
                )


#: The named chaos profiles the CLI exposes.  ``none`` exists so the
#: chaos harness can run with the full fault machinery wired but firing
#: nothing — bench_chaos.py holds it equal to an uninjected run.
PROFILES: Registry[FaultProfile] = Registry("fault profile", {
    "none": FaultProfile(name="none"),
    "transient": FaultProfile(
        name="transient",
        transfer_fail_rate=0.15,
        message_delay_rate=0.05,
        message_delay_us=30.0,
    ),
    "frame-loss": FaultProfile(
        name="frame-loss",
        transfer_fail_rate=0.05,
        frame_fail_interval_us=1_500.0,
        max_frame_failures=4,
        message_delay_rate=0.02,
        message_delay_us=20.0,
    ),
    "storm": FaultProfile(
        name="storm",
        transfer_fail_rate=0.35,
        frame_fail_interval_us=1_000.0,
        max_frame_failures=8,
        message_delay_rate=0.20,
        message_delay_us=50.0,
        pressure_interval_us=4_000.0,
        pressure_duration_us=2_500.0,
    ),
})


class FaultPlan:
    """Seeded, simulated-time fault schedule for one run."""

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        profile.validate()
        self._profile = profile
        self._seed = seed
        self._rng = random.Random(seed)
        self._frame_failures_fired = 0
        self._next_frame_fail_us = self._draw_deadline(
            profile.frame_fail_interval_us, start=0.0
        )
        self._next_pressure_us = self._draw_deadline(
            profile.pressure_interval_us, start=0.0
        )

    @property
    def profile(self) -> FaultProfile:
        """The profile this plan schedules."""
        return self._profile

    @property
    def seed(self) -> int:
        """The seed the plan was built from."""
        return self._seed

    @property
    def frame_failures_fired(self) -> int:
        """Permanent frame failures fired so far."""
        return self._frame_failures_fired

    @property
    def wants_pump(self) -> bool:
        """Whether any time-scheduled fault is still pending.

        The engine consults this before computing the current simulated
        time each operation; profiles with no frame failures or
        pressure spikes scheduled (``none``, ``transient``) skip the
        pump entirely.
        """
        return (
            self._next_frame_fail_us is not None
            or self._next_pressure_us is not None
        )

    def _draw_deadline(self, interval_us: float, start: float) -> Optional[float]:
        """Next event time for a mean interval, or None when disabled."""
        if interval_us <= 0:
            return None
        # Uniform jitter in [0.5, 1.5) of the mean keeps events spread
        # without the long tail an exponential draw would add.
        return start + interval_us * self._rng.uniform(0.5, 1.5)

    # -- per-injection-point decisions -----------------------------------

    def transfer_fails(self) -> bool:
        """Whether the next block-transfer attempt fails."""
        rate = self._profile.transfer_fail_rate
        if rate <= 0.0:
            return False
        return self._rng.random() < rate

    def message_delay(self) -> float:
        """Extra µs to charge the next directory operation (0 = none)."""
        rate = self._profile.message_delay_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return 0.0
        return self._profile.message_delay_us

    def frame_failure_due(self, now_us: float) -> bool:
        """Whether a permanent frame failure is due at *now_us*.

        A ``True`` answer consumes the scheduled event and draws the
        next deadline; the cap on failures per run is enforced here.
        """
        deadline = self._next_frame_fail_us
        if deadline is None or now_us < deadline:
            return False
        if self._frame_failures_fired >= self._profile.max_frame_failures:
            self._next_frame_fail_us = None
            return False
        self._frame_failures_fired += 1
        self._next_frame_fail_us = self._draw_deadline(
            self._profile.frame_fail_interval_us, start=now_us
        )
        return True

    def pressure_due(self, now_us: float) -> bool:
        """Whether a local-memory pressure spike starts at *now_us*."""
        deadline = self._next_pressure_us
        if deadline is None or now_us < deadline:
            return False
        self._next_pressure_us = self._draw_deadline(
            self._profile.pressure_interval_us, start=now_us
        )
        return True

    def choose(self, candidates: Sequence[T]) -> T:
        """Pick one victim from a deterministically ordered sequence."""
        if not candidates:
            raise ConfigurationError("cannot choose a victim from nothing")
        return candidates[self._rng.randrange(len(candidates))]
