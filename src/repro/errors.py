"""Exception hierarchy for the NUMA reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the simulator may raise with a single handler.  Faults that
are part of normal control flow (page faults, MMU misses) are *not* errors
and live next to the components that raise them.

:class:`ProtocolError` and :class:`ProtocolViolation` are *structured*:
besides the human-readable message they carry the offending page id, a
snapshot of the directory entry's mapping table, and (for violations
raised by the runtime sanitizer) the trail of recent events, so tests and
tooling can assert on fields instead of parsing messages.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A machine, policy, or workload was configured inconsistently."""


class OutOfMemoryError(ReproError):
    """A physical frame pool or the logical page pool was exhausted.

    Structured like :class:`ProtocolError`: besides the message it can
    carry the exhausted pool's ``capacity``, the ``in_use`` count at the
    moment of failure, a ``where`` label naming the pool (``"page
    pool"``, ``"global memory"``, ``"local memory of cpu 3"``), and any
    further ``details`` (pending lazy cleanups, offline frames, ...), so
    tests and tooling can assert on fields instead of parsing messages.
    All fields are optional; the class remains usable bare.
    """

    def __init__(
        self,
        message: str,
        *,
        capacity: Optional[int] = None,
        in_use: Optional[int] = None,
        where: Optional[str] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.capacity = capacity
        self.in_use = in_use
        self.where = where
        self.details = details if details is not None else {}

    def as_record(self) -> Dict[str, Any]:
        """Flat record for the telemetry exporters / JSON output."""
        return {
            "t": "out_of_memory",
            "message": self.message,
            "capacity": self.capacity,
            "in_use": self.in_use,
            "where": self.where,
            "details": dict(self.details),
        }


class MappingError(ReproError):
    """An MMU or pmap operation violated a hardware mapping constraint.

    The Rosetta MMU on the ACE allows only a single virtual address per
    physical page per processor; attempting to establish a second mapping
    raises this error.
    """


class ProtocolError(ReproError):
    """The NUMA consistency protocol reached an impossible state.

    Raised by internal invariant checks; seeing one of these indicates a
    bug in the protocol implementation, never a user mistake.

    ``page_id`` identifies the offending page when the check concerns a
    single directory entry; ``mappings`` is a snapshot of that entry's
    per-processor mapping table (``cpu -> {"vpage": ..., "protection":
    ..., "frame": ...}``); ``details`` holds any further structured
    context (state, owner, copy holders, ...).  All three are optional so
    the class remains usable for free-form protocol errors.
    """

    def __init__(
        self,
        message: str,
        *,
        page_id: Optional[int] = None,
        mappings: Optional[Dict[int, Dict[str, Any]]] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.page_id = page_id
        self.mappings = mappings if mappings is not None else {}
        self.details = details if details is not None else {}

    def as_record(self) -> Dict[str, Any]:
        """Flat record for the telemetry exporters / JSON output."""
        return {
            "t": "protocol_error",
            "message": self.message,
            "page_id": self.page_id,
            "mappings": {
                str(cpu): dict(mapping)
                for cpu, mapping in self.mappings.items()
            },
            "details": dict(self.details),
        }


class ProtocolViolation(ProtocolError):
    """A runtime sanitizer check failed.

    Raised only by :mod:`repro.check.sanitizer` (opt-in via
    ``REPRO_SANITIZE=1``).  ``check`` names the sanitizer rule that
    tripped and ``events`` is the trail of the most recent event-bus
    events leading up to the violation, oldest first, each a flat record
    with a ``"t"`` discriminator.
    """

    def __init__(
        self,
        message: str,
        *,
        check: str = "unknown",
        events: Sequence[Dict[str, Any]] = (),
        page_id: Optional[int] = None,
        mappings: Optional[Dict[int, Dict[str, Any]]] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            message, page_id=page_id, mappings=mappings, details=details
        )
        self.check = check
        self.events: Tuple[Dict[str, Any], ...] = tuple(events)

    def as_record(self) -> Dict[str, Any]:
        record = super().as_record()
        record["t"] = "protocol_violation"
        record["check"] = self.check
        record["events"] = [dict(event) for event in self.events]
        return record

    def format_trail(self) -> str:
        """The event trail as numbered lines, oldest first."""
        if not self.events:
            return "(no events recorded)"
        lines = []
        for index, event in enumerate(self.events):
            detail = " ".join(
                f"{key}={value}"
                for key, value in event.items()
                if key != "t"
            )
            lines.append(f"  [{index}] {event.get('t', '?')}: {detail}")
        return "\n".join(lines)


class FaultResolutionError(ProtocolError):
    """A page fault did not settle after bounded handler retries.

    The engine gives the fault handler a fixed number of attempts
    (``MAX_FAULT_RESOLUTION_ATTEMPTS`` in :mod:`repro.sim.engine`) to
    establish a translation that satisfies the faulting access; a page
    that is still not mapped afterwards means the protocol is cycling —
    a livelock, never a user mistake.  ``cpu``/``vpage`` locate the
    access and ``attempts`` is how many handler invocations were spent.
    Subclasses :class:`ProtocolError` so existing handlers keep catching
    it.
    """

    def __init__(
        self,
        message: str,
        *,
        cpu: int,
        vpage: int,
        attempts: int,
        page_id: Optional[int] = None,
        mappings: Optional[Dict[int, Dict[str, Any]]] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            message, page_id=page_id, mappings=mappings, details=details
        )
        self.cpu = cpu
        self.vpage = vpage
        self.attempts = attempts

    def as_record(self) -> Dict[str, Any]:
        record = super().as_record()
        record["t"] = "fault_resolution_error"
        record["cpu"] = self.cpu
        record["vpage"] = self.vpage
        record["attempts"] = self.attempts
        return record


class SimulationError(ReproError):
    """A workload emitted an operation the engine cannot execute."""
