"""The one name → entry table idiom.

Workloads, machines, policies, the two fault-profile families and the
batch grids are all named menus the CLI and :class:`~repro.exp.spec.
RunSpec` select from.  Each is a :class:`Registry`: an ordinary
read-only mapping (iteration order is menu order) that also resolves a
user-typed name — whitespace and case ignored — to the registry's own
spelling, and reports a miss with the one sentence every menu shares.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def _fold(text: str) -> str:
    """The form names are compared in: surrounding space and case ignored."""
    return text.strip().lower()


class Registry(Mapping[str, T]):
    """A named, ordered, read-only menu of entries."""

    def __init__(self, kind: str, entries: Mapping[str, T]) -> None:
        #: What one entry is called in error messages ("workload", …).
        self.kind = kind
        self._by_name: Dict[str, T] = dict(entries)
        self._canonical = {_fold(name): name for name in self._by_name}

    def __getitem__(self, name: str) -> T:
        return self._by_name[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def canonical(self, name: str) -> str:
        """The registry's spelling of *name*, or ConfigurationError.

        The CLI maps the error to exit code 2; the message lists the
        whole menu in registry order.
        """
        known = self._canonical.get(_fold(name))
        if known is None:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; "
                f"choose from {', '.join(self._by_name)}"
            )
        return known

    def resolve(self, name: str) -> T:
        """The entry *name* selects (see :meth:`canonical`)."""
        return self._by_name[self.canonical(name)]
