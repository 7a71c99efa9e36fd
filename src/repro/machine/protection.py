"""Hardware page protections.

Models the protection values the Rosetta MMU (and the Mach pmap interface)
understand.  ``WRITE`` implies ``READ``: the ACE has no write-only pages, and
the Mach VM system never requests one.
"""

from __future__ import annotations

import enum


class Protection(enum.IntFlag):
    """Access rights for a virtual-to-physical mapping.

    The values form a lattice ordered by permissiveness::

        NONE < READ < READ_WRITE

    ``WRITE`` never appears alone; use :data:`READ_WRITE` (aliased to
    ``Protection.WRITE | Protection.READ``) when a writable mapping is
    needed.
    """

    NONE = 0
    READ = 1
    WRITE = 2

    # These run on every MMU translation and protocol step, so they work
    # on the raw flag value: IntFlag's operators construct a new member
    # per ``&``/``|``, which is pure overhead on the reference hot path.

    @property
    def readable(self) -> bool:
        """Whether a fetch through this mapping succeeds."""
        return bool(self._value_ & 1)

    @property
    def writable(self) -> bool:
        """Whether a store through this mapping succeeds."""
        return bool(self._value_ & 2)

    def allows(self, wanted: "Protection") -> bool:
        """Whether this protection grants every right in *wanted*."""
        value = wanted._value_
        return (self._value_ & value) == value

    def normalized(self) -> "Protection":
        """Return the protection with ``WRITE implies READ`` applied."""
        return _NORMALIZED[self._value_]


#: Convenience aliases matching Mach's VM_PROT_* constants.
PROT_NONE = Protection.NONE
PROT_READ = Protection.READ
PROT_READ_WRITE = Protection.READ | Protection.WRITE

#: ``normalized()`` results indexed by raw flag value (WRITE gains READ).
#: A member is its own index, so the fault path's hot sites read
#: ``_NORMALIZED[prot]`` instead of calling the method.
_NORMALIZED = (
    PROT_NONE,
    PROT_READ,
    PROT_READ_WRITE,
    PROT_READ_WRITE,
)

#: ``granted.allows(wanted)`` as ``_ALLOWS[granted][wanted]``, for the
#: same hot sites.
_ALLOWS = tuple(
    tuple((granted & wanted) == wanted for wanted in range(4))
    for granted in range(4)
)
