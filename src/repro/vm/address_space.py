"""Task address spaces: virtual regions mapped to VM objects.

C-Threads programs share a single task (one address space, many threads),
which is the model all the paper's applications except FFT use; EPEX
FORTRAN's private/shared split is expressed as distinct VM objects within
the same space.  Regions are page-granular, never overlap and are never
unmapped, so :meth:`AddressSpace.resolve` bisects a sorted index of them.
"""

from __future__ import annotations

from bisect import bisect_right, insort_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.machine.protection import PROT_READ, PROT_READ_WRITE, Protection
from repro.vm.vm_object import VMObject


@dataclass(frozen=True)
class VMRegion:
    """A contiguous range of virtual pages backed by one VM object."""

    start_vpage: int
    vm_object: VMObject

    @property
    def n_pages(self) -> int:
        """Length of the region in pages."""
        return self.vm_object.n_pages

    @property
    def end_vpage(self) -> int:
        """One past the last virtual page of the region."""
        return self.start_vpage + self.n_pages

    @property
    def max_prot(self) -> Protection:
        """The loosest protection user code may hold on these pages."""
        return PROT_READ_WRITE if self.vm_object.writable else PROT_READ

    def contains(self, vpage: int) -> bool:
        """Whether *vpage* falls inside this region."""
        return self.start_vpage <= vpage < self.end_vpage

    def offset_of(self, vpage: int) -> int:
        """Page offset of *vpage* within the backing object."""
        if not self.contains(vpage):
            raise ConfigurationError(
                f"vpage {vpage} is not in region at {self.start_vpage}"
            )
        return vpage - self.start_vpage

    def vpage_at(self, offset: int) -> int:
        """Virtual page number of the object page at *offset*."""
        if not 0 <= offset < self.n_pages:
            raise ConfigurationError(
                f"offset {offset} outside region of {self.n_pages} pages"
            )
        return self.start_vpage + offset

    def vpages(self) -> range:
        """All virtual pages of the region."""
        return range(self.start_vpage, self.end_vpage)


class SegmentationFault(SimulationError):
    """A reference touched virtual memory no region covers.

    In a real system this kills the process; in the simulator it means a
    workload emitted a bad address, so it is an error, not control flow.
    """

    def __init__(self, vpage: int) -> None:
        super().__init__(vpage)
        self.vpage = vpage

    def __str__(self) -> str:
        return f"no region maps virtual page {self.vpage}"


#: Sort key of a ``(start, end, region)`` span.
_START = itemgetter(0)


class AddressSpace:
    """One Mach task's virtual address space.

    ``first_vpage`` sets where sequential mapping starts.  The simulated
    MMUs hold one translation context per processor (no address-space
    identifiers), so concurrent tasks must occupy *disjoint* virtual
    ranges — :func:`repro.sim.harness.build_simulation` gives each task its own base,
    standing in for the Rosetta segment-register switching a real context
    switch performs.
    """

    def __init__(self, name: str = "task", first_vpage: int = 0x100) -> None:
        if first_vpage < 1:
            raise ConfigurationError(
                "first_vpage must leave page zero unmapped"
            )
        self.name = name
        self._regions: List[VMRegion] = []
        #: ``(start, end, region)`` sorted by start, for :meth:`resolve`
        #: to bisect.  Regions never overlap, are never unmapped and never
        #: change length, so an insert per mapping keeps it exact.
        self._spans: List[Tuple[int, int, VMRegion]] = []
        self._by_object: Dict[int, VMRegion] = {}
        self._next_vpage = first_vpage  # unmapped guard below

    def map_object(
        self, vm_object: VMObject, at_vpage: Optional[int] = None
    ) -> VMRegion:
        """Map *vm_object* into the space, returning its region.

        Without *at_vpage* the region is placed after all existing
        regions, with a one-page guard gap so off-by-one references fault
        loudly instead of landing in a neighbour.
        """
        if vm_object.object_id in self._by_object:
            raise ConfigurationError(
                f"object {vm_object.name!r} is already mapped in {self.name}"
            )
        if at_vpage is None:
            at_vpage = self._next_vpage
        region = VMRegion(start_vpage=at_vpage, vm_object=vm_object)
        for existing in self._regions:
            if (
                region.start_vpage < existing.end_vpage
                and existing.start_vpage < region.end_vpage
            ):
                raise ConfigurationError(
                    f"region for {vm_object.name!r} overlaps "
                    f"{existing.vm_object.name!r}"
                )
        self._regions.append(region)
        insort_right(
            self._spans, (at_vpage, region.end_vpage, region), key=_START
        )
        self._by_object[vm_object.object_id] = region
        self._next_vpage = max(self._next_vpage, region.end_vpage + 1)
        return region

    def resolve(self, vpage: int) -> Tuple[VMRegion, int]:
        """Find the region covering *vpage* and the object offset.

        Raises :class:`SegmentationFault` when nothing maps the page.
        """
        index = bisect_right(self._spans, vpage, key=_START) - 1
        if index >= 0:
            start, end, region = self._spans[index]
            if vpage < end:
                return region, vpage - start
        raise SegmentationFault(vpage)

    def region_of(self, vm_object: VMObject) -> VMRegion:
        """The region a mapped object occupies."""
        try:
            return self._by_object[vm_object.object_id]
        except KeyError:
            raise ConfigurationError(
                f"object {vm_object.name!r} is not mapped in {self.name}"
            ) from None

    @property
    def regions(self) -> List[VMRegion]:
        """All mapped regions, in mapping order."""
        return list(self._regions)
