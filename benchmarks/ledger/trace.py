"""Span recording for the ledger's traced run.

The simulator itself is not edited: :class:`Tracer` installs class-level
wrappers around each layer's public entry points (and replaces a few
module-level functions) for the duration of one traced rep, then puts
every attribute back.  Spans nest on a stack, so a span's *self* time is
its duration minus the part its child spans cover, and every span is
also booked against the span that caused it (``edges``).

Hot entry points (``SoftwareTLB.lookup``, ``CThread.next_op``) run a
million times a rep, so spans are kept aggregated per name and per
(parent, name) edge rather than one record per call; the wrappers cost
more than the calls they time, which is why per-layer seconds are shares
of the *traced* run and ``trace.overhead_ratio`` is reported beside them.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple


class SpanStat:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        #: Inclusive seconds; a span nested inside one of the same name
        #: is not counted twice.
        self.total_s = 0.0
        #: Seconds not covered by child spans.
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """A span stack plus the bookkeeping to install and remove wrappers."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStat] = {}
        #: (parent span name, span name) -> [calls, inclusive seconds].
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: Open spans, innermost last: [name, seconds covered by children].
        self._stack: List[list] = []
        #: (owner, attribute, original), oldest first.
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def stat(self, name: str) -> SpanStat:
        """The aggregate for *name* (empty if nothing was recorded)."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        return stat

    def _enter(self, name: str, stat: SpanStat) -> float:
        stat.depth += 1
        self._stack.append([name, 0.0])
        return perf_counter()

    def _exit(self, name: str, stat: SpanStat, started: float) -> None:
        elapsed = perf_counter() - started
        stack = self._stack
        covered = stack.pop()[1]
        stat.calls += 1
        stat.self_s += elapsed - covered
        stat.depth -= 1
        if stat.depth == 0:
            stat.total_s += elapsed
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            key = (parent[0], name)
            edge = self.edges.get(key)
            if edge is None:
                self.edges[key] = [1, elapsed]
            else:
                edge[0] += 1
                edge[1] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a ``with`` block as one span called *name*."""
        stat = self.stat(name)
        started = self._enter(name, stat)
        try:
            yield
        finally:
            self._exit(name, stat, started)

    def wrapped(self, name: str, func: Callable) -> Callable:
        """*func*, recording one span called *name* per call."""
        stat = self.stat(name)
        enter = self._enter
        leave = self._exit

        def wrapper(*args, **kwargs):
            started = enter(name, stat)
            try:
                return func(*args, **kwargs)
            finally:
                leave(name, stat, started)

        wrapper.__ledger_span__ = name  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # -- installing ----------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace *owner*'s own ``attr`` and remember how to undo it."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` where it is defined, once, as span *name*.

        For a class, the wrapper goes on the class in the MRO that
        defines *attr*, so a subclass inheriting an already wrapped
        method is not wrapped a second time.
        """
        if isinstance(owner, type):
            for klass in owner.__mro__:
                if attr in vars(klass):
                    owner = klass
                    break
        func = vars(owner)[attr]
        if not hasattr(func, "__ledger_span__"):
            self.patch(owner, attr, self.wrapped(name, func))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        """Attributes currently patched."""
        return len(self._patches)

    # -- output --------------------------------------------------------------

    def as_records(self) -> List[Dict[str, object]]:
        """Span and edge aggregates as flat records, for the result file."""
        records: List[Dict[str, object]] = [
            {
                "t": "span",
                "name": name,
                "calls": stat.calls,
                "total_s": stat.total_s,
                "self_s": stat.self_s,
            }
            for name, stat in sorted(self.stats.items())
            if stat.calls
        ]
        records.extend(
            {
                "t": "edge",
                "parent": parent,
                "name": name,
                "calls": int(edge[0]),
                "total_s": edge[1],
            }
            for (parent, name), edge in sorted(self.edges.items())
        )
        return records
