"""No public name under ``src/repro`` is defined and then never used.

Every public (no leading underscore) function, method or class defined
in the package must occur as a word somewhere in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` more often than it is defined — a call,
an import, an attribute read or a mention in a docstring all count.  A
name that fails is dead: delete it, or give it the caller it was
written for.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples")


def _public_definitions():
    """name → (definition count, first ``path:line``) over the package."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                count, where = found.get(node.name, (0, None))
                found[node.name] = (
                    count + 1,
                    where or f"{path.relative_to(ROOT)}:{node.lineno}",
                )
    return found


def test_every_public_name_is_used_beyond_its_definition():
    words = collections.Counter()
    for tree in TREES:
        for path in (ROOT / tree).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    dead = sorted(
        f"{name} ({where})"
        for name, (count, where) in _public_definitions().items()
        if words[name] <= count
    )
    assert dead == [], "defined but never used: " + ", ".join(dead)
