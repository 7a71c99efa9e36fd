"""Workload abstraction: applications as reference-block generators.

A workload's :meth:`Workload.build` lays out the application's memory
image in a fresh address space (via :class:`BuildContext`) and returns one
operation generator per thread.  Builds must be *pure*: they create new VM
objects every call so a workload instance can be run repeatedly (Tnuma,
Tglobal, Tlocal) without state leaking between runs.

``g_over_l`` is the G/L ratio used when solving the paper's model for
this application: footnote 3 of the paper uses 2.3 for the all-fetch
programs (Gfetch, IMatMult) and 2 for the rest, "to reflect a reasonable
balance of loads and stores".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.machine.config import MachineConfig
from repro.sim.ops import Op
from repro.vm.address_space import AddressSpace, VMRegion
from repro.vm.vm_object import VMObject

ThreadBody = Iterator[Op]


@dataclass
class BuildContext:
    """Everything a workload needs to lay itself out."""

    space: AddressSpace
    n_threads: int
    n_processors: int
    machine_config: MachineConfig
    #: Regions mapped during this build, by object name (for analysis).
    regions: Dict[str, VMRegion] = field(default_factory=dict)

    @property
    def page_size_words(self) -> int:
        """Words per page on the target machine."""
        return self.machine_config.page_size_words

    def map(self, vm_object: VMObject) -> VMRegion:
        """Map an object into the task and remember its region."""
        region = self.space.map_object(vm_object)
        self.regions[vm_object.name] = region
        return region

    def pages_for_words(self, words: int) -> int:
        """Pages needed to hold *words* 32-bit words."""
        per_page = self.page_size_words
        return max(1, (words + per_page - 1) // per_page)


class Workload(abc.ABC):
    """A parallel application, reproduced as a deterministic trace source."""

    #: Application name as it appears in the paper's tables.
    name: str = "abstract"
    #: G/L ratio for model solving (footnote 3: 2.3 for all-fetch codes).
    g_over_l: float = 2.0
    #: State the thread bodies share, by variable name: with any, the
    #: order bodies are pulled in decides what each one yields.
    shared_state: Tuple[str, ...] = ()

    @abc.abstractmethod
    def build(self, ctx: BuildContext) -> List[ThreadBody]:
        """Lay out memory and return one op generator per thread.

        The returned list's length may be less than ``ctx.n_threads`` if
        the workload caps its parallelism, but must be at least 1.
        """

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name
