"""Package-level names that resolve on first use (PEP 562).

A front-door package (``repro``, ``repro.exp``, ``repro.analysis`` …)
offers its submodules' public names without importing the submodules:
its ``__init__`` holds one table and asks :func:`lazy_exports` for the
three module hooks::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "cache": ("ResultCache", "CacheEntry"),
        "spec": ("RunSpec",),
    })

so ``from repro.exp import RunSpec`` imports ``repro.exp.spec`` and
nothing else.  The registries (``repro.workloads``,
``repro.core.policies``) stay eager: importing them is what fills them.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *table* maps a module path relative to *package* to the public names
    that module defines.  A name is looked up in its module on first
    access and then kept on the package, so the hook runs once per name.
    """
    home = {
        name: f"{package}.{module}"
        for module, names in table.items()
        for name in names
    }
    exported = list(home)

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return __getattr__, __dir__, exported
