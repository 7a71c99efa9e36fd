"""``repro-numa lint``: the static half of the correctness tooling.

Everything here parses source and executes none of it.  Each module is
parsed once and traversed once into a :class:`ModuleIndex`; the eleven
rules are the rows of :data:`RULES`, each a plain function over that
index, and the guard inference ``repro-numa races --static`` prints
(:func:`infer_guards`, over the vocabulary in :mod:`repro.check.guards`)
reads the same index.  The rules encode repo-specific correctness
conventions that generic linters cannot know:

``no-wall-clock`` (RN001)
    No wall-clock time sources (``time.time``, ``time.perf_counter``,
    ``time.monotonic``, ``datetime.now``, ...) inside ``sim/``,
    ``core/``, or ``vm/``: those layers run on *simulated* time, and a
    wall-clock read there silently couples results to host speed.
    ``obs/profiling.py`` is the allowlisted home for wall-clock spans.
``state-assign`` (RN002)
    No direct :class:`~repro.core.state.PageState` assignment outside
    ``core/transitions.py`` and ``core/numa_manager.py``; every state
    change must funnel through ``NUMAManager._transition`` so it is
    announced on the event bus.
``bare-except`` (RN003)
    No bare ``except:`` anywhere — it swallows ``KeyboardInterrupt``
    and protocol bugs alike.
``mutable-default`` (RN004)
    No mutable default arguments (``[]``, ``{}``, ``set()``, ...).
``transition-event`` (RN005)
    Inside the modules allowed to assign page state, any function that
    assigns a ``.state`` attribute must also call ``emit_transition``
    (directly or through the transition funnel), so no transition can
    bypass the bus.
``seeded-random`` (RN006)
    No unseeded ``random.Random()`` and no module-level ``random.*``
    draws (``random.random()``, ``random.choice()``, ...) anywhere in
    the package: every consumer of randomness must hold an explicitly
    seeded ``random.Random(seed)`` instance, or runs stop being
    reproducible (the fault-injection plans depend on this).
``mmu-mutation`` (RN007)
    Outside ``machine/`` and ``vm/pmap.py``, no direct MMU mutation
    (``.mmu.enter(...)``, ``.mmu.remove(...)``, ``.mmu.protect(...)``,
    ``.mmu.remove_frame(...)``): every mapping change must go through
    the CPU's ``enter_translation``/``remove_translation``/
    ``protect_translation`` funnel so the software TLB is invalidated
    in the same breath.  A bypassed mutation leaves a stale cached
    translation the fast path will happily keep charging.
``shared-guard`` (RN008)
    A shared protocol field (directory entry state, MMU tables, TLB
    cache) is mutated at a site no guard covers — not in a funnel
    module, not in the field's declaring module, not inside a spin-lock
    critical region.
``lock-balance`` (RN009)
    A function acquires a :class:`~repro.threads.spinlock.SpinLock` but
    does not release it on every path (an early ``return`` while held,
    or no release at all).
``shootdown-pair`` (RN010)
    A function mutates an MMU directly without issuing a paired TLB
    ``invalidate``/``flush`` — the exact shape of a missed shootdown.
``emit-under-lock`` (RN011)
    A bus event is emitted while a spin lock is held; observers run
    arbitrary Python, so this risks lock-order inversions against the
    observer's own locks and inflates critical sections.

RN001-RN007 are :data:`DEFAULT_RULES`, RN008-RN011 :data:`RACE_RULES`
(what ``repro-numa races --static`` runs); ``repro-numa lint`` runs all
eleven.  The pass never imports the analyzed modules, so it is safe
over fixtures that deliberately race (:mod:`repro.check.fixtures`
carries ``allow[]`` suppressions for exactly that reason).

Suppression: append ``# repro-lint: allow[rule-name]`` to the offending
line, or put ``# repro-lint: allow-file[rule-name]`` on its own line
anywhere in the file to suppress a rule file-wide (used sparingly, with
a justification comment).  Rule ids (``RN001``) work as well as names.

Output reuses the telemetry exporter idioms: human lines to stdout and
flat ``{"t": "lint", ...}`` records for ``--json``.  Exit codes are
stable for CI: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.check.guards import (
    ENTRY_GATED_FIELDS,
    FUNNEL_MODULES,
    GUARD_NONE,
    GUARD_SCAN_EXCLUDE,
    MUTATING_METHODS,
    SHARED_FIELDS,
    GuardModel,
    MutationSite,
    classify_guard,
)

#: Directories (relative to the ``repro`` package) that run on simulated
#: time only.
SIMULATED_TIME_DIRS: Tuple[str, ...] = ("sim", "core", "vm")

#: Files allowed to read the wall clock no matter what (the profiler).
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = ("obs/profiling.py",)

#: Files allowed to assign ``PageState`` to a directory entry.
STATE_ASSIGN_ALLOWLIST: Tuple[str, ...] = (
    "core/transitions.py",
    "core/numa_manager.py",
)

#: Path prefixes allowed to mutate an MMU directly (the machine layer
#: itself and the pmap, which is the machine-dependent half of the VM).
MMU_MUTATION_ALLOWLIST: Tuple[str, ...] = ("machine/", "vm/pmap.py")

#: The MMU methods that change a mapping, and the names an MMU goes by
#: (RN007 and RN010 agree on both).
MMU_MUTATORS: FrozenSet[str] = frozenset(
    {"enter", "remove", "protect", "remove_frame"}
)
MMU_NAMES: FrozenSet[str] = frozenset({"mmu", "_mmu"})

_ALLOW_LINE_RE = re.compile(r"#\s*repro-lint:\s*allow\[([^\]]+)\]")
_ALLOW_FILE_RE = re.compile(r"#\s*repro-lint:\s*allow-file\[([^\]]+)\]")


@dataclass(frozen=True)
class Violation:
    """One lint finding at a specific source location."""

    rule_id: str
    rule_name: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """The human-readable one-liner, editor-clickable."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id}[{self.rule_name}] {self.message}"
        )

    def as_record(self) -> Dict[str, object]:
        """Flat record for the JSONL exporters."""
        return {
            "t": "lint",
            "rule_id": self.rule_id,
            "rule": self.rule_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


# -- the module index: one parse, one traversal -------------------------------

#: The functions enclosing a recorded node, outermost first, as indices
#: into :attr:`ModuleIndex.functions` (empty at module and class level).
Scopes = Tuple[int, ...]


class Function(NamedTuple):
    """One ``def``: its name, dotted ``Class.method`` name and defaults."""

    name: str
    qualname: str
    defaults: Tuple[ast.expr, ...]


class FromImport(NamedTuple):
    """One name of a ``from module import name [as bound]``."""

    line: int
    col: int
    module: Optional[str]
    name: str
    bound: str


class AttrRead(NamedTuple):
    """``<base>.<attr>`` on a plain name."""

    line: int
    col: int
    base: str
    attr: str


class Call(NamedTuple):
    """``<receiver>.<name>(...)``, or ``<name>(...)`` with no receiver."""

    line: int
    col: int
    name: str
    receiver: Optional[ast.expr]
    has_args: bool
    scopes: Scopes


class Assignment(NamedTuple):
    """An ``=``, annotated ``=``, augmented assignment or ``del``.

    The one definition of "assigns" every rule shares: *targets* are
    flattened out of tuple unpacking, *kind* is ``assign`` (plain or
    annotated), ``augassign`` or ``delete``, and *value_names* are the
    bare names the right-hand side mentions.  An annotation without a
    value assigns nothing and is not recorded.
    """

    kind: str
    line: int
    col: int
    targets: Tuple[ast.expr, ...]
    value_names: Set[str]
    scopes: Scopes


_ASSIGNMENT_KINDS = {
    ast.Assign: "assign",
    ast.AnnAssign: "assign",
    ast.AugAssign: "augassign",
    ast.Delete: "delete",
}
_ASSIGNMENT_NODES = tuple(_ASSIGNMENT_KINDS)


class LockEvent(NamedTuple):
    """An ``acquire``/``release`` call (*key*: the lock's source text)
    or a ``return`` (*key* empty), in the function it happens in."""

    line: int
    col: int
    kind: str
    key: str
    function: str


def _flat_targets(targets: Iterable[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flat_targets(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _flat_targets([target.value])
        else:
            yield target


def _suppressions(
    source_lines: Sequence[str],
) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """File-wide and per-line suppressed rule names/ids."""
    file_wide: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    for index, text in enumerate(source_lines, start=1):
        match = _ALLOW_FILE_RE.search(text)
        if match:
            file_wide.update(
                part.strip() for part in match.group(1).split(",")
            )
        match = _ALLOW_LINE_RE.search(text)
        if match:
            per_line[index] = {
                part.strip() for part in match.group(1).split(",")
            }
    return file_wide, per_line


def _field_of(node: ast.expr, relpath: str) -> Optional[str]:
    """The shared field mutated when *node* is a mutation receiver.

    ``state``/``owner``/``mappings`` are gated: outside the protocol
    modules they count only when the receiver names a directory entry.
    """
    if not isinstance(node, ast.Attribute) or node.attr not in SHARED_FIELDS:
        return None
    name = node.attr
    if name in ENTRY_GATED_FIELDS:
        protocol = SHARED_FIELDS[name] + FUNNEL_MODULES
        base = node.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute)
            else ""
        )
        if relpath not in protocol and "entry" not in base_name.lower():
            return None
    return name


class ModuleIndex:
    """What the rules and the guard inference need to know of a module.

    Built from one traversal of one parsed tree; nothing downstream
    walks the tree again.  *source* carries the suppression comments
    (a tree alone has none).
    """

    def __init__(
        self, tree: ast.AST, relpath: str, source: str = ""
    ) -> None:
        self.relpath = relpath
        self.file_wide, self.per_line = _suppressions(source.splitlines())
        #: Local name -> module, for ``import module [as name]``.
        self.modules: Dict[str, str] = {}
        self.from_imports: List[FromImport] = []
        self.attr_reads: List[AttrRead] = []
        self.calls: List[Call] = []
        self.assignments: List[Assignment] = []
        #: ``(line, col)`` of every ``except:`` that names no exception.
        self.bare_excepts: List[Tuple[int, int]] = []
        #: Every ``def``, an enclosing one before those nested in it.
        self.functions: List[Function] = []
        self._returns: List[Tuple[int, int, Scopes]] = []
        self._traverse(tree)
        self.lock_events = self._lock_events()
        self.lock_spans = self._lock_spans()
        self.sites = self._sites()
        #: Majority guard per shared field over the files of this run —
        #: RN008's "inferred guard elsewhere" hint.  A module linted on
        #: its own knows only its own; :func:`lint_paths` fills in the
        #: run's once every file is indexed.
        self.discipline = GuardModel(sites=self.sites).discipline()

    @classmethod
    def parse(cls, source: str, relpath: str) -> "ModuleIndex":
        """Index one module's source (the one ``ast.parse`` per file)."""
        return cls(ast.parse(source, filename=relpath), relpath, source)

    def _traverse(self, tree: ast.AST) -> None:
        # Each entry: a node, the functions and the def/class names
        # enclosing it, and — inside an assignment's right-hand side —
        # that assignment's ``value_names``, which the names met fill.
        stack: List[
            Tuple[ast.AST, Scopes, Tuple[str, ...], Optional[Set[str]]]
        ] = [(tree, (), (), None)]
        while stack:
            node, scopes, qual, names = stack.pop()
            value: Optional[ast.AST] = None
            value_names: Optional[Set[str]] = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = qual + (node.name,)
                scopes = scopes + (len(self.functions),)
                defaults = node.args.defaults + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                self.functions.append(
                    Function(node.name, ".".join(qual), tuple(defaults))
                )
            elif isinstance(node, ast.ClassDef):
                qual = qual + (node.name,)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                self.from_imports.extend(
                    FromImport(
                        node.lineno, node.col_offset, node.module,
                        alias.name, alias.asname or alias.name,
                    )
                    for alias in node.names
                )
            elif isinstance(node, ast.Name):
                if names is not None:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    self.attr_reads.append(
                        AttrRead(
                            node.lineno, node.col_offset,
                            node.value.id, node.attr,
                        )
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                has_args = bool(node.args or node.keywords)
                if isinstance(func, ast.Attribute):
                    self.calls.append(
                        Call(node.lineno, node.col_offset, func.attr,
                             func.value, has_args, scopes)
                    )
                elif isinstance(func, ast.Name):
                    self.calls.append(
                        Call(node.lineno, node.col_offset, func.id,
                             None, has_args, scopes)
                    )
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    self.bare_excepts.append((node.lineno, node.col_offset))
            elif isinstance(node, ast.Return):
                self._returns.append((node.lineno, node.col_offset, scopes))
            elif isinstance(node, _ASSIGNMENT_NODES):
                value = getattr(node, "value", None)
                if value is not None or isinstance(node, ast.Delete):
                    value_names = set()
                    targets = getattr(node, "targets", None) or [node.target]
                    self.assignments.append(
                        Assignment(
                            _ASSIGNMENT_KINDS[type(node)],
                            node.lineno, node.col_offset,
                            tuple(_flat_targets(targets)),
                            value_names, scopes,
                        )
                    )
            # Reversed, so the stack pops the children first to last.
            stack.extend(
                reversed(
                    [
                        (child, scopes, qual,
                         value_names if child is value else names)
                        for child in ast.iter_child_nodes(node)
                    ]
                )
            )

    def function_of(self, scopes: Scopes) -> str:
        """Dotted name of the innermost function (``<module>`` if none)."""
        return self.functions[scopes[-1]].qualname if scopes else "<module>"

    def _lock_events(self) -> List[LockEvent]:
        """Every acquire/release call and every return, in source order.

        The one extraction RN009 (balance per function), RN011 and the
        spin-lock guard (both via :attr:`lock_spans`) share.
        """
        events = [
            LockEvent(call.line, call.col, call.name,
                      ast.unparse(call.receiver),
                      self.function_of(call.scopes))
            for call in self.calls
            if call.receiver is not None
            and call.name in ("acquire", "release")
        ]
        events.extend(
            LockEvent(line, col, "return", "", self.function_of(scopes))
            for line, col, scopes in self._returns
        )
        events.sort()
        return events

    def _lock_spans(self) -> List[Tuple[int, int]]:
        """Lexical ``acquire``..``release`` line spans, per lock expression.

        Conservative: a span opens at each ``<lock>.acquire(...)`` call
        and closes at the next ``<lock>.release(...)`` on the same
        receiver expression (compared by source text).  Anything inside
        such a span counts as spin-lock guarded.
        """
        spans: List[Tuple[int, int]] = []
        open_at: Dict[str, int] = {}
        for event in self.lock_events:
            if event.kind == "acquire":
                open_at.setdefault(event.key, event.line)
            elif event.kind == "release" and event.key in open_at:
                spans.append((open_at.pop(event.key), event.line))
        return spans

    def _sites(self) -> List[MutationSite]:
        """Every shared-field mutation in the module, classified.

        A site is an assignment or ``del`` whose target is a shared
        field (``assign``/``augassign``/``delete``) or an item of one
        (``item-assign``/``delete``), or a mutating method called on
        one (the method's name).
        """
        relpath = self.relpath
        sites: List[MutationSite] = []

        def add(fname: Optional[str], line: int, col: int, kind: str,
                scopes: Scopes) -> None:
            if fname is not None:
                guard = classify_guard(relpath, fname, line, self.lock_spans)
                sites.append(
                    MutationSite(fname, relpath, line, col,
                                 self.function_of(scopes), guard, kind)
                )

        for assignment in self.assignments:
            for target in assignment.targets:
                kind = assignment.kind
                fname = _field_of(target, relpath)
                if fname is None and isinstance(target, ast.Subscript):
                    fname = _field_of(target.value, relpath)
                    if kind != "delete":
                        kind = "item-assign"
                add(fname, target.lineno, target.col_offset, kind,
                    assignment.scopes)
        for call in self.calls:
            if call.receiver is not None and call.name in MUTATING_METHODS:
                add(_field_of(call.receiver, relpath), call.line, call.col,
                    call.name, call.scopes)
        sites.sort(key=lambda s: (s.path, s.line, s.col, s.field))
        return sites


def collect_sites(tree: ast.AST, relpath: str) -> List[MutationSite]:
    """All classified shared-field mutation sites in one module."""
    return ModuleIndex(tree, relpath).sites


# -- the rules: one table, eleven rows ----------------------------------------

#: What a rule's check yields: ``(line, col, message)``.
Finding = Tuple[int, int, str]


class Rule(NamedTuple):
    """One row of :data:`RULES`.

    *scope* says whether the rule scans the file at a package-relative
    path at all; *check* yields the findings for one indexed module.
    """

    id: str
    name: str
    description: str
    scope: Callable[[str], bool]
    check: Callable[[ModuleIndex, str], Iterator[Finding]]


def _everywhere(relpath: str) -> bool:
    return True


#: Wall-clock attribute reads: ``<module>.<attr>``.
_WALL_CLOCK_ATTRS: Dict[str, Set[str]] = {
    "time": {"time", "perf_counter", "monotonic", "process_time", "clock"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: Wall-clock names importable from :mod:`time`.
_WALL_CLOCK_TIME_NAMES: Set[str] = {
    "time",
    "perf_counter",
    "monotonic",
    "process_time",
}

#: Module-level draw/state functions of :mod:`random` whose use means
#: the *global* (unseeded-by-us) RNG.
_RANDOM_MODULE_DRAWS: Set[str] = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randint", "random", "randrange", "sample", "seed", "shuffle",
    "triangular", "uniform", "vonmisesvariate", "weibullvariate",
}

_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque"}

_TLB_INVALIDATORS = frozenset({"invalidate", "flush"})


def _simulated_time(relpath: str) -> bool:
    return relpath not in WALL_CLOCK_ALLOWLIST and relpath.startswith(
        tuple(f"{d}/" for d in SIMULATED_TIME_DIRS)
    )


def _no_wall_clock(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    imported_clocks: Set[str] = set()
    for imp in index.from_imports:
        if imp.module == "time" and imp.name in _WALL_CLOCK_TIME_NAMES:
            imported_clocks.add(imp.bound)
            yield (
                imp.line,
                imp.col,
                f"import of wall-clock 'time.{imp.name}' in "
                "simulated-time code",
            )
    for read in index.attr_reads:
        module = index.modules.get(read.base, read.base)
        if read.attr in _WALL_CLOCK_ATTRS.get(module, ()):
            yield (
                read.line,
                read.col,
                f"wall-clock read '{module}.{read.attr}' in "
                "simulated-time code",
            )
    for call in index.calls:
        if call.receiver is None and call.name in imported_clocks:
            yield (
                call.line,
                call.col,
                f"wall-clock call '{call.name}()' in simulated-time code",
            )


def _state_assign(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for assignment in index.assignments:
        if "PageState" not in assignment.value_names:
            continue
        for target in assignment.targets:
            if isinstance(target, ast.Attribute):
                yield (
                    assignment.line,
                    assignment.col,
                    f"direct PageState assignment to "
                    f"'.{target.attr}'; route through "
                    "NUMAManager._transition so the event bus sees it",
                )
                break


def _bare_except(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for line, col in index.bare_excepts:
        yield line, col, "bare 'except:'; name the exceptions you mean"


def _mutable_default(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for function in index.functions:
        for default in function.defaults:
            if isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            ):
                yield (
                    default.lineno,
                    default.col_offset,
                    f"mutable default argument in '{function.name}()'",
                )


def _transition_event(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    # One finding per function, at its first ``.state`` assignment; an
    # emit anywhere inside a function covers the functions enclosing it.
    settled = {
        number
        for call in index.calls
        if "emit_transition" in call.name
        for number in call.scopes
    }
    for assignment in index.assignments:
        if assignment.kind == "delete" or not any(
            isinstance(t, ast.Attribute) and t.attr == "state"
            for t in assignment.targets
        ):
            continue
        for number in assignment.scopes:
            if number not in settled:
                settled.add(number)
                yield (
                    assignment.line,
                    assignment.col,
                    f"'{index.functions[number].name}()' assigns '.state' "
                    "without emitting a transition event; use "
                    "NUMAManager._transition",
                )


def _seeded_random(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for imp in index.from_imports:
        if imp.module == "random" and imp.name in _RANDOM_MODULE_DRAWS:
            yield (
                imp.line,
                imp.col,
                f"import of 'random.{imp.name}' binds the "
                "global RNG; instantiate random.Random(seed) "
                "instead",
            )
    for call in index.calls:
        receiver = call.receiver
        if not (
            isinstance(receiver, ast.Name)
            and index.modules.get(receiver.id, receiver.id) == "random"
        ):
            continue
        if call.name == "Random":
            if not call.has_args:
                yield (
                    call.line,
                    call.col,
                    "unseeded random.Random(); pass an explicit "
                    "seed so runs are reproducible",
                )
        elif call.name in _RANDOM_MODULE_DRAWS:
            yield (
                call.line,
                call.col,
                f"module-level 'random.{call.name}()' uses the "
                "global RNG; draw from a seeded random.Random "
                "instance",
            )


def _mmu_mutations(index: ModuleIndex) -> Iterator[Call]:
    """Calls of an MMU mutator on something that goes by an MMU name."""
    for call in index.calls:
        receiver = call.receiver
        if call.name in MMU_MUTATORS and (
            (isinstance(receiver, ast.Name) and receiver.id in MMU_NAMES)
            or (
                isinstance(receiver, ast.Attribute)
                and receiver.attr in MMU_NAMES
            )
        ):
            yield call


def _mmu_mutation(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for call in _mmu_mutations(index):
        yield (
            call.line,
            call.col,
            f"direct MMU mutation '.{call.name}()' bypasses the "
            "TLB shootdown funnel; call the CPU's "
            "enter_translation/remove_translation/"
            "protect_translation instead",
        )


def _shared_guard(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for site in index.sites:
        if site.guard != GUARD_NONE:
            continue
        expected = index.discipline.get(site.field)
        hint = (
            f" (inferred guard elsewhere: {expected})" if expected else ""
        )
        yield (
            site.line,
            site.col,
            f"mutation of shared field '{site.field}' "
            f"({site.kind}) in {site.function} is covered by no "
            f"guard{hint}; route it through the transition funnel "
            "or the owning class",
        )


def _lock_balance(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    by_function: Dict[str, List[LockEvent]] = {}
    for event in index.lock_events:
        by_function.setdefault(event.function, []).append(event)
    for fname in sorted(by_function):
        held: Dict[str, Tuple[int, int]] = {}
        saw_lock = False
        for line, col, kind, key, _ in by_function[fname]:
            if kind == "acquire":
                held.setdefault(key, (line, col))
                saw_lock = True
            elif kind == "release":
                held.pop(key, None)
            elif held:
                locks = ", ".join(sorted(held))
                yield (
                    line,
                    col,
                    f"{fname} returns while still holding "
                    f"{locks}; release before every exit",
                )
        if saw_lock:
            for key in sorted(held):
                aline, acol = held[key]
                yield (
                    aline,
                    acol,
                    f"{fname} acquires {key} without a matching "
                    "release on every path",
                )


def _shootdown_pair(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    invalidating = {
        number
        for call in index.calls
        if call.receiver is not None and call.name in _TLB_INVALIDATORS
        for number in call.scopes
    }
    for call in _mmu_mutations(index):
        for number in call.scopes:
            if number not in invalidating:
                yield (
                    call.line,
                    call.col,
                    f"{index.functions[number].name} mutates the MMU "
                    f"('.{call.name}()') without a paired TLB "
                    "invalidate/flush — a missed shootdown",
                )


def _emit_under_lock(index: ModuleIndex, relpath: str) -> Iterator[Finding]:
    for call in index.calls:
        if call.name.startswith("emit_") and any(
            start <= call.line <= end for start, end in index.lock_spans
        ):
            yield (
                call.line,
                call.col,
                f"'{call.name}()' emitted inside a spin-lock critical "
                "region; emit after release",
            )


#: Every rule, in report order: id, name, description, scope, check.
RULES: Tuple[Rule, ...] = (
    Rule(
        "RN001", "no-wall-clock",
        "no time.time/perf_counter/monotonic/datetime.now inside "
        + "/".join(SIMULATED_TIME_DIRS),
        _simulated_time, _no_wall_clock,
    ),
    Rule(
        "RN002", "state-assign",
        "direct PageState assignment allowed only in "
        + ", ".join(STATE_ASSIGN_ALLOWLIST),
        lambda relpath: relpath not in STATE_ASSIGN_ALLOWLIST,
        _state_assign,
    ),
    Rule(
        "RN003", "bare-except",
        "bare 'except:' swallows KeyboardInterrupt and bugs",
        _everywhere, _bare_except,
    ),
    Rule(
        "RN004", "mutable-default",
        "list/dict/set defaults are shared across calls",
        _everywhere, _mutable_default,
    ),
    Rule(
        "RN005", "transition-event",
        "every function assigning '.state' in the transition-funnel "
        "modules must call emit_transition",
        lambda relpath: relpath in STATE_ASSIGN_ALLOWLIST,
        _transition_event,
    ),
    Rule(
        "RN006", "seeded-random",
        "unseeded random.Random() and module-level random.* draws break "
        "run reproducibility; pass an explicit seed",
        _everywhere, _seeded_random,
    ),
    Rule(
        "RN007", "mmu-mutation",
        "direct MMU.enter/remove/protect/remove_frame calls allowed "
        "only under " + "/".join(MMU_MUTATION_ALLOWLIST) + "; elsewhere "
        "use CPU.enter_translation/remove_translation/protect_translation",
        lambda relpath: not relpath.startswith(MMU_MUTATION_ALLOWLIST),
        _mmu_mutation,
    ),
    Rule(
        "RN008", "shared-guard",
        "shared protocol fields (directory entries, MMU tables, TLB "
        "cache) may only be mutated under their inferred guard: the "
        "transition funnel, the declaring module's monitor methods, or "
        "a spin-lock critical region",
        _everywhere, _shared_guard,
    ),
    Rule(
        "RN009", "lock-balance",
        "every SpinLock.acquire() must be paired with a release() on "
        "all paths out of the function",
        lambda relpath: relpath != "threads/spinlock.py",
        _lock_balance,
    ),
    Rule(
        "RN010", "shootdown-pair",
        "a function that mutates an MMU directly must also issue a TLB "
        "invalidate/flush, or stale translations survive (a missed "
        "shootdown)",
        # The MMU and TLB primitives themselves are below the funnel.
        lambda relpath: relpath not in ("machine/mmu.py", "machine/tlb.py"),
        _shootdown_pair,
    ),
    Rule(
        "RN011", "emit-under-lock",
        "bus events must not be emitted while a spin lock is held: "
        "observers run arbitrary code, risking lock-order inversions "
        "and inflated critical sections",
        _everywhere, _emit_under_lock,
    ),
)

#: The hygiene/protocol rules (RN001-RN007), the race-discipline rules
#: (RN008-RN011, ``repro-numa races --static``) and the full set
#: ``repro-numa lint`` runs.
DEFAULT_RULES: Tuple[Rule, ...] = RULES[:7]
RACE_RULES: Tuple[Rule, ...] = RULES[7:]
ALL_RULES: Tuple[Rule, ...] = RULES


# -- running the table over files ---------------------------------------------


@dataclass
class LintReport:
    """The outcome of one lint run."""

    violations: List[Violation]
    suppressed: int
    files_checked: int
    #: The guard discipline inferred over the same files, from the same
    #: indexes (what ``repro-numa races --static`` prints).
    guard_model: Optional[GuardModel] = None

    @property
    def ok(self) -> bool:
        """Whether the run found nothing."""
        return not self.violations

    @property
    def exit_code(self) -> int:
        """Stable CI exit code: 0 clean, 1 violations."""
        return 0 if self.ok else 1

    def format(self) -> str:
        """Human-readable report."""
        lines = [v.format() for v in self.violations]
        summary = (
            f"checked {self.files_checked} files: "
            f"{len(self.violations)} violation(s), "
            f"{self.suppressed} suppressed"
        )
        lines.append(summary)
        return "\n".join(lines)

    def as_records(self) -> List[Dict[str, object]]:
        """Flat records (one per violation plus a summary) for JSONL."""
        records: List[Dict[str, object]] = [
            v.as_record() for v in self.violations
        ]
        records.append(
            {
                "t": "lint_summary",
                "files_checked": self.files_checked,
                "violations": len(self.violations),
                "suppressed": self.suppressed,
            }
        )
        return records


def _lint_index(
    index: ModuleIndex, rules: Sequence[Rule]
) -> Tuple[List[Violation], int]:
    """Run *rules* over one indexed module: (violations, suppressed)."""
    relpath = index.relpath
    violations: List[Violation] = []
    suppressed = 0
    for rule in rules:
        if not rule.scope(relpath):
            continue
        wide = rule.name in index.file_wide or rule.id in index.file_wide
        for line, col, message in rule.check(index, relpath):
            allowed = index.per_line.get(line, ())
            if wide or rule.name in allowed or rule.id in allowed:
                suppressed += 1
                continue
            violations.append(
                Violation(rule.id, rule.name, relpath, line, col, message)
            )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations, suppressed


def lint_source(
    source: str,
    relpath: str,
    rules: Sequence[Rule] = DEFAULT_RULES,
) -> Tuple[List[Violation], int]:
    """Lint one module's source; returns (violations, suppressed_count).

    *relpath* is the path relative to the ``repro`` package root in
    POSIX form (e.g. ``"sim/engine.py"``); the directory-scoped rules
    key off it.
    """
    return _lint_index(ModuleIndex.parse(source, relpath), rules)


def package_root() -> pathlib.Path:
    """The installed ``repro`` package directory (default lint target)."""
    return pathlib.Path(__file__).resolve().parent.parent


def iter_python_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    """All ``.py`` files under *root*, sorted for deterministic output."""
    yield from sorted(root.rglob("*.py"))


def _index_paths(
    paths: Optional[Iterable[pathlib.Path]], root: Optional[pathlib.Path]
) -> Tuple[List[ModuleIndex], GuardModel]:
    """Parse every file under *paths* once; infer the guards over them.

    The race fixtures (:data:`GUARD_SCAN_EXCLUDE`) are indexed and
    linted like any file but do not vote on the discipline.
    """
    if root is None:
        root = package_root()
    root = root.resolve()
    if paths is None:
        paths = [root]
    indexes: List[ModuleIndex] = []
    for path in paths:
        path = pathlib.Path(path)
        for file_path in iter_python_files(path) if path.is_dir() else [path]:
            try:
                relpath = file_path.resolve().relative_to(root).as_posix()
            except ValueError:
                relpath = file_path.as_posix()
            indexes.append(
                ModuleIndex.parse(
                    file_path.read_text(encoding="utf-8"), relpath
                )
            )
    voting = [i for i in indexes if i.relpath not in GUARD_SCAN_EXCLUDE]
    model = GuardModel(
        sites=sorted(
            (site for index in voting for site in index.sites),
            key=lambda s: (s.path, s.line, s.col, s.field),
        ),
        files_checked=len(voting),
    )
    discipline = model.discipline()
    for index in indexes:
        index.discipline = discipline
    return indexes, model


def lint_paths(
    paths: Optional[Sequence[pathlib.Path]] = None,
    rules: Sequence[Rule] = DEFAULT_RULES,
    root: Optional[pathlib.Path] = None,
) -> LintReport:
    """Lint files or directory trees; defaults to the whole package.

    *root* anchors the rule-scoping relative paths; it defaults to the
    ``repro`` package directory, so rule scopes like ``sim/`` match
    regardless of where the repo is checked out.
    """
    indexes, model = _index_paths(paths, root)
    violations: List[Violation] = []
    suppressed = 0
    for index in indexes:
        found, skipped = _lint_index(index, rules)
        violations.extend(found)
        suppressed += skipped
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return LintReport(
        violations=violations,
        suppressed=suppressed,
        files_checked=len(indexes),
        guard_model=model,
    )


def lint_races(
    paths: Optional[Sequence[pathlib.Path]] = None,
) -> LintReport:
    """Run only the race rules (``repro-numa races --static``)."""
    return lint_paths(paths, rules=RACE_RULES)


def infer_guards(
    paths: Optional[Iterable[pathlib.Path]] = None,
    root: Optional[pathlib.Path] = None,
) -> GuardModel:
    """Infer the guard discipline over *paths* (default: the package)."""
    return _index_paths(paths, root)[1]
