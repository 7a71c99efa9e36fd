"""Logical page states and request kinds for the NUMA consistency protocol.

The paper's Section 2.3.1 defines the three states a logical page can be
in; we add ``UNTOUCHED`` for pages that have been allocated but never
referenced, so that the lazy zero-fill path (the paper's ``pmap_zero_page``
deferral) is explicit rather than a special case of ``GLOBAL_WRITABLE``.
"""

from __future__ import annotations

import enum
from typing import Optional, Protocol

from repro.machine.memory import Frame


class PageState(enum.Enum):
    """Protocol state of a logical page.

    * ``UNTOUCHED`` — allocated, zero-fill pending, no processor has
      referenced it yet.  Not in the paper's tables; first touch resolves
      it through the same policy consultation.
    * ``READ_ONLY`` — replicated in one or more local memories, every
      mapping protected read-only.  The global copy is current.
    * ``LOCAL_WRITABLE`` — cached in exactly one local memory, possibly
      writable there.  The local copy is current; the global copy is stale.
    * ``GLOBAL_WRITABLE`` — resident only in global memory, writable by
      zero or more processors.
    """

    UNTOUCHED = "untouched"
    READ_ONLY = "read-only"
    LOCAL_WRITABLE = "local-writable"
    GLOBAL_WRITABLE = "global-writable"

    # Members are singletons compared by identity, so the identity hash
    # is consistent — and C-speed, which matters for the transition-table
    # lookups on every fault.
    __hash__ = object.__hash__


class AccessKind(enum.Enum):
    """The kind of access a fault is trying to perform."""

    READ = "read"
    WRITE = "write"

    __hash__ = object.__hash__  # identity hash: see PageState


class PlacementDecision(enum.Enum):
    """The answer a NUMA policy gives for a page.

    ``LOCAL`` and ``GLOBAL`` are the paper's ``cache_policy`` return
    values (Section 2.3.1): cache in the requesting processor's local
    memory, or place in global memory.  ``REMOTE`` is the Section 4.4
    extension the paper describes but did not build: leave the page in
    its current home processor's local memory and map the requester to
    it *remotely* across the bus.  "The necessary cache transition rules
    are a straightforward extension of the algorithm presented in
    Section 2" — they are implemented in
    :meth:`repro.core.numa_manager.NUMAManager.request`.
    """

    LOCAL = "local"
    GLOBAL = "global"
    REMOTE = "remote"

    __hash__ = object.__hash__  # identity hash: see PageState


class PageLike(Protocol):
    """What the NUMA manager needs to know about a logical page.

    The concrete type is :class:`repro.vm.page.LogicalPage`; the protocol
    keeps :mod:`repro.core` independent of the VM layer, mirroring how the
    paper's NUMA manager sits below the machine-independent VM system.
    """

    @property
    def page_id(self) -> int:
        """Stable identifier for directory bookkeeping."""

    @property
    def global_frame(self) -> Frame:
        """The page's permanent frame of global memory."""

    @property
    def zero_fill(self) -> bool:
        """Whether first touch should zero-fill (vs. content already global)."""

    @property
    def writable_data(self) -> Optional[bool]:
        """Whether the page belongs to a writable data region (α accounting)."""
