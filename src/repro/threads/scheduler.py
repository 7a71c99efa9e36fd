"""Processor scheduling models (Section 4.7).

The Mach scheduler the authors started from kept "conceptually a single
queue of runnable processes", which on the ACE moved processes between
processors "far too often" for NUMA locality.  They replaced it with
sequential binding: each new process is bound to a processor, skipping
busy ones.

:class:`AffinityScheduler` is the paper's fix; :class:`GlobalQueueScheduler`
models the original behaviour by rotating every thread across processors
at a fixed period, so the affinity ablation can show the damage migration
does to page placement.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.errors import ConfigurationError
from repro.threads.cthreads import CThread


class Scheduler(abc.ABC):
    """Maps threads to processors over simulated rounds."""

    name: str = "abstract"

    def __init__(self, n_processors: int) -> None:
        if n_processors < 1:
            raise ConfigurationError("scheduler needs at least one processor")
        self._n = n_processors

    @property
    def n_processors(self) -> int:
        """Processors available for scheduling."""
        return self._n

    @abc.abstractmethod
    def cpu_for(self, thread: CThread, round_index: int) -> int:
        """The processor *thread* runs on during *round_index*."""

    def fixed_cpu(self, thread: CThread) -> Optional[int]:
        """The processor *thread* runs on in every round, or ``None`` if
        that can change: only then must :meth:`cpu_for` be asked per round."""
        return None

    def migrations(self) -> int:
        """Thread migrations performed so far (0 for binding schedulers)."""
        return 0


class AffinityScheduler(Scheduler):
    """The paper's binding scheduler: thread *i* runs on processor *i mod n*.

    "We assigned processors sequentially by processor number" — with one
    thread per processor in all the paper's runs, skipping busy processors
    never arises, so sequential assignment is the whole behaviour.
    """

    name = "affinity"

    def cpu_for(self, thread: CThread, round_index: int) -> int:
        return thread.index % self._n

    def fixed_cpu(self, thread: CThread) -> Optional[int]:
        return thread.index % self._n


class GlobalQueueScheduler(Scheduler):
    """Original Mach behaviour: threads drift between processors.

    Every ``migration_period`` rounds each thread moves to the next
    processor, modelling "available processors selected the next process
    to run" from a single queue.  The rotation is deterministic so runs
    are repeatable; what matters for placement is the *rate* of
    migration, not which processor is chosen.
    """

    name = "global-queue"

    def __init__(self, n_processors: int, migration_period: int = 50) -> None:
        super().__init__(n_processors)
        if migration_period < 1:
            raise ConfigurationError("migration period must be at least 1")
        self._period = migration_period
        self._migrations = 0
        self._last_epoch: dict[int, int] = {}

    @property
    def migration_period(self) -> int:
        """Rounds between forced thread migrations."""
        return self._period

    def cpu_for(self, thread: CThread, round_index: int) -> int:
        epoch = round_index // self._period
        previous = self._last_epoch.get(thread.index)
        if previous is not None and previous != epoch:
            self._migrations += 1
        self._last_epoch[thread.index] = epoch
        return (thread.index + epoch) % self._n

    def migrations(self) -> int:
        return self._migrations
