"""Seeded synthetic races: the detector's own test vectors.

A race detector that has never seen a race proves nothing — a wiring
bug (an observer never installed, an event renamed) silently turns it
into a rubber stamp.  These fixtures plant the two canonical protocol
races in an otherwise ordinary simulation and return the collecting
:class:`~repro.check.races.RaceDetector` so callers can assert both
were caught, deterministically:

- :func:`run_unguarded_write_fixture` forges a directory entry's
  ``state``/``owner`` between two reference blocks, bypassing the
  ``NUMAManager._transition`` funnel.  The forgery keeps the entry
  structurally consistent (it pretends cpu 0's read-only copy was
  upgraded in place), so nothing crashes — but the next legitimate
  fault announces a transition whose ``old_state`` contradicts the last
  announced state, which is exactly the shadow-state mismatch the
  detector's ``unguarded-state-write`` check hunts.
- :func:`run_missed_shootdown_fixture` removes an MMU translation
  directly — skipping the ``CPU.remove_translation`` funnel and with it
  the TLB invalidation — then references the page again.  The engine's
  fast path resolves the reference through the stale cached entry; the
  detector pairs the MMU-mutation stream against the invalidation
  stream and flags the reference as a ``missed-shootdown``.

Both fixtures are deliberate protocol violations, so this file carries
``repro-lint`` suppressions for the very rules (RN002/RN007/RN008/
RN010) that would otherwise flag them; the runs are built with
``sanitize=False`` so an environment-attached sanitizer does not abort
the planted corruption before the detector sees it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.core.policies import MoveThresholdPolicy
from repro.core.state import PageState
from repro.sim.ops import Compute, MemBlock, Op
from repro.workloads.base import BuildContext, Workload
from repro.vm.vm_object import shared_object

from repro.check.races import RaceDetector, attach_detector


class _FixtureWorkload(Workload):
    """One-thread workload whose body closes over the live simulation.

    ``build`` runs before the simulation exists, but the body is a
    generator — code between ``yield``\\ s executes only while the
    engine runs, by which time the fixture has published the live
    ``numa``/``machine`` objects into *holder*.
    """

    name = "race-fixture"
    g_over_l = 2.0

    def __init__(self, holder: Dict[str, object]) -> None:
        self._holder = holder

    def build(self, ctx: BuildContext) -> List[Iterator[Op]]:
        region = ctx.map(shared_object("racy", 1))
        return [self.body(region.vpage_at(0))]

    def body(self, vpage: int) -> Iterator[Op]:
        raise NotImplementedError


class _UnguardedWriteWorkload(_FixtureWorkload):
    name = "race-fixture-unguarded-write"

    def body(self, vpage: int) -> Iterator[Op]:
        # Legitimate first touch: read faults the page in; the manager
        # announces UNTOUCHED -> READ_ONLY with cpu 0 holding a copy.
        yield MemBlock(vpage, reads=2, writes=0)
        yield Compute(1.0)
        # The rogue write: promote the page to locally-writable without
        # going through the funnel.  Structurally self-consistent
        # (owner's copy exists, mapping present), so only the *protocol
        # discipline* is violated — precisely what the detector is for.
        numa = self._holder["numa"]
        entry = next(iter(numa.directory.entries()))  # type: ignore[attr-defined]
        entry.state = PageState.LOCAL_WRITABLE  # repro-lint: allow[state-assign, shared-guard]
        entry.owner = 0  # repro-lint: allow[shared-guard]
        # The next write faults (the mapping is read-only) and the
        # manager announces a transition from LOCAL_WRITABLE — but the
        # last *announced* state was READ_ONLY: shadow mismatch.
        yield MemBlock(vpage, reads=0, writes=2)


class _MissedShootdownWorkload(_FixtureWorkload):
    name = "race-fixture-missed-shootdown"

    def body(self, vpage: int) -> Iterator[Op]:
        # Fault the page in writable; the engine fills cpu 0's TLB.
        yield MemBlock(vpage, reads=2, writes=2)
        yield Compute(1.0)
        # The rogue mutation: drop the MMU translation directly,
        # skipping CPU.remove_translation and with it the paired TLB
        # invalidation — the canonical missed shootdown.
        machine = self._holder["machine"]
        cpu0 = machine.cpu(0)  # type: ignore[attr-defined]
        cpu0.mmu.remove(vpage)  # repro-lint: allow[mmu-mutation, shootdown-pair]
        # The next read hits the stale cached entry on the fast path.
        yield MemBlock(vpage, reads=2, writes=0)


def _run_fixture(workload: _FixtureWorkload) -> RaceDetector:
    from repro.sim.harness import build_simulation

    sim = build_simulation(
        [workload],
        MoveThresholdPolicy(),
        n_processors=3,
        check_invariants=False,
        sanitize=False,
    )
    workload._holder["numa"] = sim.numa
    workload._holder["machine"] = sim.machine
    detector = attach_detector(
        sim.numa, sim.engine.bus, raise_on_race=False
    )
    sim.engine.run(sim.threads)
    return detector


def run_unguarded_write_fixture() -> RaceDetector:
    """Plant and (expect to) catch the unguarded directory write."""
    return _run_fixture(_UnguardedWriteWorkload({}))


def run_missed_shootdown_fixture() -> RaceDetector:
    """Plant and (expect to) catch the missed TLB shootdown."""
    return _run_fixture(_MissedShootdownWorkload({}))
