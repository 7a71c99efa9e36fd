"""Model-check the coherence tables against an independent transcription.

Three layers of checking, all exhaustive over the (tiny, finite)
protocol state space:

1. **Transcription cross-check** — the paper's Tables 1 and 2 are
   transcribed *as printed* in :mod:`repro.analysis.paper`
   (:data:`~repro.analysis.paper.TABLE_1`,
   :data:`~repro.analysis.paper.TABLE_2`: three text lines per cell,
   keyed by the printed headings, nothing derived from
   ``ActionSpec.describe()``) and every cell is compared against what
   the live :func:`repro.core.transitions.lookup` returns.  The
   benchmark renders the tables *from* the code; this module checks the
   code *against* the paper, closing the loop.
2. **Totality and semantic cell checks** — every
   ``(AccessKind, PlacementDecision, StateKey)`` triple must resolve to
   a cell (no ``KeyError``), :func:`~repro.core.transitions.classify_state`
   must classify every ``(PageState, owner-relation)`` or raise a
   deliberate :class:`~repro.errors.ProtocolError` (never ``KeyError``),
   and each cell must satisfy the structural rules implied by the
   protocol (a ``GLOBAL`` decision ends ``GLOBAL_WRITABLE`` with no
   local copy, leaving ``LOCAL_WRITABLE`` always syncs, ...).
3. **Reachability** — abstract configurations ``(state, owner,
   copy-holders)`` are explored exhaustively from the ``UNTOUCHED``
   start for a small processor count; every reached configuration must
   satisfy the directory invariants, and every table cell must be
   exercised by some reachable configuration (a cell no walk can reach
   is a dead transition).
4. **TLB reachability** — the same walk over ``(state, owner,
   copy-holders, tlb-cached)`` configurations, where the fourth
   component is the set of processors whose software TLB caches a
   translation for the page.  Each cleanup carries its invalidation
   edge (``sync&flush own`` shoots down the requester's entry,
   ``sync&flush other`` the owner's, lossy flushes and ``unmap all``
   everyone's); a spontaneous ``pmap_remove_all`` edge models policy
   invalidations and fault-injection frame offlining, and after every
   access the requester may or may not fill its TLB (both successors
   are explored).  Every reached configuration must satisfy the cache
   invariant: a TLB entry may only exist where the state says a
   mapping can (``UNTOUCHED`` none, ``READ_ONLY`` only copy holders,
   ``LOCAL_WRITABLE`` only the owner).  A missing invalidation edge
   surfaces here as a stale-entry configuration.
5. **Multi-level reachability** — on machines with a socket tier
   (:mod:`repro.machine.topology`), the NUMA manager adds one move to
   the protocol: a LOCAL decision for a ``LOCAL_WRITABLE`` page whose
   owner shares the requester's socket becomes a *same-socket remote
   mapping* (Section 4.4's mechanism at socket distance) instead of a
   migration.  This layer re-walks the abstract space over
   ``(state, owner, copy-holders, remote-mappers)`` configurations with
   a reduced two-sockets-of-two abstract socket map, checking that
   remote mappers exist only under ``LOCAL_WRITABLE``, always share the
   owner's socket, never include the owner, and are torn down by every
   cleanup that frees the owner's frame (the live ``ActionExecutor.flush``
   drops other mappers of freed frames — a dangling remote mapping
   would be a use-after-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
)

if TYPE_CHECKING:
    from repro.machine.topology import SocketTopology

from repro.analysis.paper import TABLE_1, TABLE_2
from repro.core.state import AccessKind, PageState, PlacementDecision
from repro.core.transitions import (
    Cleanup,
    StateKey,
    classify_state,
    first_touch_spec,
    lookup,
)
from repro.errors import ConfigurationError, ProtocolError

#: Abstract protocol configuration: (state, owner, copy holders).
Config = Tuple[PageState, Optional[int], FrozenSet[int]]

#: Abstract configuration extended with the set of processors whose
#: software TLB caches a translation for the page.
TLBConfig = Tuple[PageState, Optional[int], FrozenSet[int], FrozenSet[int]]

#: A table cell identifier for coverage accounting.
CellKey = Tuple[str, PlacementDecision, StateKey]

#: The two placement decisions Tables 1-2 have rows for.
_DECISIONS = (PlacementDecision.LOCAL, PlacementDecision.GLOBAL)


@dataclass
class ModelCheckReport:
    """Everything the model checker found (empty lists = all good)."""

    mismatches: List[str] = field(default_factory=list)
    totality_failures: List[str] = field(default_factory=list)
    semantic_failures: List[str] = field(default_factory=list)
    invariant_failures: List[str] = field(default_factory=list)
    unreached_cells: List[str] = field(default_factory=list)
    tlb_failures: List[str] = field(default_factory=list)
    ml_failures: List[str] = field(default_factory=list)
    cells_checked: int = 0
    n_configs: int = 0
    n_tlb_configs: int = 0
    #: Reachable multi-level configurations (0 when layer 5 did not run,
    #: i.e. the check targeted a flat machine).
    n_ml_configs: int = 0
    n_cpus: int = 0

    def _sections(self) -> Tuple[Tuple[str, str, List[str]], ...]:
        """Every failure list: (record kind, report title, entries)."""
        return (
            ("mismatch", "table mismatches", self.mismatches),
            ("totality", "totality failures", self.totality_failures),
            ("semantic", "semantic failures", self.semantic_failures),
            ("invariant", "invariant failures", self.invariant_failures),
            ("unreached", "unreached table cells", self.unreached_cells),
            ("tlb", "TLB coherence failures", self.tlb_failures),
            ("multilevel", "multi-level failures", self.ml_failures),
        )

    @property
    def ok(self) -> bool:
        """Whether every check passed."""
        return not any(entries for _, _, entries in self._sections())

    @property
    def exit_code(self) -> int:
        """Stable CI exit code: 0 verified, 1 any failure."""
        return 0 if self.ok else 1

    def format(self) -> str:
        """Human-readable report."""
        lines = [
            "protocol model check (Tables 1-2 vs core/transitions.py):",
            f"  table cells verified against the paper: "
            f"{self.cells_checked}",
            f"  reachable abstract configurations ({self.n_cpus} cpus): "
            f"{self.n_configs}",
            f"  reachable TLB configurations ({self.n_cpus} cpus): "
            f"{self.n_tlb_configs}",
        ]
        if self.n_ml_configs or self.ml_failures:
            lines.append(
                f"  reachable multi-level configurations "
                f"(2 sockets x 2 cpus): {self.n_ml_configs}"
            )
        for _, title, entries in self._sections():
            if entries:
                lines.append(f"  {title} ({len(entries)}):")
                lines.extend(f"    - {entry}" for entry in entries)
            else:
                lines.append(f"  {title}: none")
        lines.append("  VERDICT: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)

    def as_records(self) -> List[Dict[str, object]]:
        """Flat records for the JSONL exporters."""
        records: List[Dict[str, object]] = []
        for kind, _, entries in self._sections():
            for entry in entries:
                records.append(
                    {"t": "modelcheck_failure", "kind": kind,
                     "detail": entry}
                )
        records.append(
            {
                "t": "modelcheck_summary",
                "ok": self.ok,
                "cells_checked": self.cells_checked,
                "n_configs": self.n_configs,
                "n_tlb_configs": self.n_tlb_configs,
                "n_ml_configs": self.n_ml_configs,
                "n_cpus": self.n_cpus,
            }
        )
        return records


def _cell_name(kind: AccessKind, decision: PlacementDecision,
               key: StateKey) -> str:
    return f"{kind.value}/{decision.value}/{key.value}"


def _check_transcription(report: ModelCheckReport) -> None:
    """Layer 1: every live cell must match the paper transcription."""
    for kind, paper in (
        (AccessKind.READ, TABLE_1),
        (AccessKind.WRITE, TABLE_2),
    ):
        for (row, column), expected in paper.items():
            decision, key = PlacementDecision[row], StateKey(column)
            name = _cell_name(kind, decision, key)
            try:
                spec = lookup(kind, decision, key)
            except KeyError:
                report.totality_failures.append(
                    f"{name}: no cell in the live table"
                )
                continue
            actual = spec.describe()
            report.cells_checked += 1
            if actual != expected:
                report.mismatches.append(
                    f"{name}: paper says {expected}, code says {actual}"
                )


def _check_totality(report: ModelCheckReport) -> None:
    """Layer 2a: lookup/classify_state are total over their domains."""
    for kind, decision, key in product(AccessKind, _DECISIONS, StateKey):
        name = _cell_name(kind, decision, key)
        try:
            lookup(kind, decision, key)
        except KeyError:
            report.totality_failures.append(
                f"{name}: lookup raised KeyError"
            )
    # classify_state: every (state, owner-relation) either classifies or
    # raises the deliberate ProtocolError — never KeyError or similar.
    for state, owner in product(PageState, (None, 0, 1)):
        try:
            classify_state(state, owner, cpu=0)
        except ProtocolError:
            deliberate = state is PageState.UNTOUCHED or (
                state is PageState.LOCAL_WRITABLE and owner is None
            )
            if not deliberate:
                report.totality_failures.append(
                    f"classify_state({state.value}, owner={owner}) raised "
                    "ProtocolError unexpectedly"
                )
        except Exception as error:  # noqa: BLE001 - the check's point
            report.totality_failures.append(
                f"classify_state({state.value}, owner={owner}) raised "
                f"{type(error).__name__} (must be total or ProtocolError)"
            )
    # First touch must be defined for every (kind, decision) pair too.
    for kind, decision in product(AccessKind, _DECISIONS):
        try:
            first_touch_spec(kind, decision)
        except Exception as error:  # noqa: BLE001 - the check's point
            report.totality_failures.append(
                f"first_touch_spec({kind.value}, {decision.value}) raised "
                f"{type(error).__name__}"
            )


def _check_cell_semantics(report: ModelCheckReport) -> None:
    """Layer 2b: structural rules every cell must obey."""
    for kind, decision, key in product(AccessKind, _DECISIONS, StateKey):
        try:
            spec = lookup(kind, decision, key)
        except KeyError:
            continue  # already reported by totality
        name = _cell_name(kind, decision, key)
        fail = report.semantic_failures.append
        if decision is PlacementDecision.GLOBAL:
            if spec.new_state is not PageState.GLOBAL_WRITABLE:
                fail(f"{name}: GLOBAL decision must end GLOBAL_WRITABLE")
            if spec.copy_to_local:
                fail(f"{name}: GLOBAL decision must not copy to local")
        if spec.new_state is PageState.LOCAL_WRITABLE:
            if decision is not PlacementDecision.LOCAL:
                fail(f"{name}: only a LOCAL decision may end "
                     "LOCAL_WRITABLE")
            if kind is AccessKind.READ and key is not (
                StateKey.LOCAL_WRITABLE_OWN
            ):
                fail(f"{name}: a read may stay LOCAL_WRITABLE only on "
                     "the owning processor")
        # Leaving LOCAL_WRITABLE must sync the dirty copy back first.
        if key is StateKey.LOCAL_WRITABLE_OTHER:
            if spec.cleanup is not Cleanup.SYNC_FLUSH_OTHER:
                fail(f"{name}: leaving another owner's LOCAL_WRITABLE "
                     "page must sync&flush the owner")
        if (
            key is StateKey.LOCAL_WRITABLE_OWN
            and spec.new_state is not PageState.LOCAL_WRITABLE
            and spec.cleanup is not Cleanup.SYNC_FLUSH_OWN
        ):
            fail(f"{name}: demoting one's own LOCAL_WRITABLE page must "
                 "sync&flush own")
        # Sync cleanups only make sense where a dirty local copy exists.
        if spec.cleanup in (
            Cleanup.SYNC_FLUSH_OWN, Cleanup.SYNC_FLUSH_OTHER
        ) and key in (StateKey.READ_ONLY, StateKey.GLOBAL_WRITABLE):
            fail(f"{name}: sync cleanup on a state with no dirty copy")
        # Non-sync flushes may only drop copies the global frame still
        # covers, i.e. READ_ONLY replicas.
        if spec.cleanup in (Cleanup.FLUSH_ALL, Cleanup.FLUSH_OTHER) and (
            key is not StateKey.READ_ONLY
        ):
            fail(f"{name}: lossy flush outside READ_ONLY would drop "
                 "dirty data")
        if spec.cleanup is Cleanup.UNMAP_ALL and key is not (
            StateKey.GLOBAL_WRITABLE
        ):
            fail(f"{name}: unmap-all cleanup only applies to "
                 "GLOBAL_WRITABLE pages")


#: Where every walk starts: a page nobody has touched (the four-field
#: form carries a layer's extra, initially empty, CPU set).
_START: Config = (PageState.UNTOUCHED, None, frozenset())
_START4: TLBConfig = (PageState.UNTOUCHED, None, frozenset(), frozenset())

#: What :func:`_apply_abstract` returns: the successor, the table cell
#: the step exercised, and the cleanup it performed (whose invalidation
#: edge layer 4 follows).
Step = Tuple[Config, CellKey, Cleanup]

#: Any layer's configuration, for the code every layer shares.
C = TypeVar("C", bound=Tuple[Any, ...])


def _after_cleanup(
    cleanup: Cleanup, cpu: int, owner: Optional[int], holders: FrozenSet[int]
) -> FrozenSet[int]:
    """Which of *holders* still hold the page after *cleanup*.

    *holders* are the processors with a local copy (layer 3) or the
    ones whose TLB caches a translation (layer 4): a cleanup takes both
    from the same processors, because every mapping it drops goes
    through ``CPU.remove_translation``/``protect_translation`` (the
    RN007 funnel), which shoots down that processor's cached entry.
    ``unmap all`` drops mappings and no copy; layer 4 adds its edge.
    """
    if cleanup is Cleanup.SYNC_FLUSH_OWN:
        return holders - {cpu}
    if cleanup is Cleanup.SYNC_FLUSH_OTHER:
        return holders - {owner}
    if cleanup is Cleanup.FLUSH_ALL:
        return frozenset()
    if cleanup is Cleanup.FLUSH_OTHER:
        return holders & {cpu}
    return holders


def _apply_abstract(
    config: Config, cpu: int, kind: AccessKind,
    decision: PlacementDecision,
) -> Step:
    """One abstract protocol step (the model of Tables 1-2 + first touch)."""
    state, owner, copies = config
    if state is PageState.UNTOUCHED:
        spec = first_touch_spec(kind, decision)
        cell: CellKey = ("first-touch", decision,
                         StateKey.GLOBAL_WRITABLE)  # placeholder column
    else:
        key = classify_state(state, owner, cpu)
        spec = lookup(kind, decision, key)
        cell = (kind.value, decision, key)
    copies = _after_cleanup(spec.cleanup, cpu, owner, copies)
    if spec.copy_to_local:
        copies = copies | {cpu}
    new_owner = cpu if spec.new_state is PageState.LOCAL_WRITABLE else None
    return (spec.new_state, new_owner, frozenset(copies)), cell, spec.cleanup


def _config_invariant(config: Config) -> Optional[str]:
    """The directory invariant, restated over abstract configurations."""
    state, owner, copies = config
    if state is PageState.READ_ONLY:
        if owner is not None:
            return "READ_ONLY with an owner"
        if not copies:
            return "READ_ONLY with no copies"
    elif state is PageState.LOCAL_WRITABLE:
        if owner is None:
            return "LOCAL_WRITABLE without owner"
        if copies != frozenset({owner}):
            return (
                f"LOCAL_WRITABLE copies {sorted(copies)} != owner "
                f"{{{owner}}}"
            )
    elif state is PageState.GLOBAL_WRITABLE:
        if owner is not None:
            return "GLOBAL_WRITABLE with an owner"
        if copies:
            return f"GLOBAL_WRITABLE with copies {sorted(copies)}"
    elif state is PageState.UNTOUCHED:
        if owner is not None or copies:
            return "UNTOUCHED with cache state"
    return None


def _config_name(config: Tuple[Any, ...], fourth: str = "") -> str:
    """Render a configuration; *fourth* names a layer's extra CPU set."""
    state, owner, copies = config[:3]
    extra = f", {fourth}={sorted(config[3])}" if fourth else ""
    return f"({state.value}, owner={owner}, copies={sorted(copies)}{extra})"


def _walk(
    start: C,
    edges: Callable[[C], Iterable[Tuple[str, Union[C, Exception]]]],
    invariant: Callable[[C], Optional[str]],
    fourth: str = "",
) -> Tuple[Set[C], List[Tuple[C, C]], List[str]]:
    """The one exhaustive frontier walk every layer shares.

    ``edges(config)`` yields ``(label, successor)`` pairs — the
    exception itself as the successor when the step raised.  A
    successor that breaks *invariant* is reported and not expanded.
    Returns the reached configurations, the legal ``(source,
    successor)`` edges, and one message per illegal edge.
    """
    seen = {start}
    frontier = [start]
    legal: List[Tuple[C, C]] = []
    failures: List[str] = []
    while frontier:
        config = frontier.pop()
        for label, nxt in edges(config):
            if isinstance(nxt, Exception):
                failures.append(
                    f"step from {_config_name(config, fourth)} with "
                    f"{label} raised {type(nxt).__name__}: {nxt}"
                )
                continue
            problem = invariant(nxt)
            if problem is not None:
                failures.append(
                    f"{_config_name(config, fourth)} --{label}--> "
                    f"{_config_name(nxt, fourth)}: {problem}"
                )
                continue
            legal.append((config, nxt))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen, legal, failures


def _steps(
    config: Config, n_cpus: int
) -> Iterator[Tuple[int, AccessKind, PlacementDecision,
                    Union[Step, Exception]]]:
    """Every access to one protocol configuration.

    Yields ``(cpu, kind, decision, outcome)``: the :data:`Step`, or the
    ProtocolError/KeyError taking it raised.
    """
    for cpu, kind, decision in product(range(n_cpus), AccessKind, _DECISIONS):
        outcome: Union[Step, Exception]
        try:
            outcome = _apply_abstract(config, cpu, kind, decision)
        except (ProtocolError, KeyError) as error:
            outcome = error
        yield cpu, kind, decision, outcome


def _label(cpu: int, kind: AccessKind, move: str) -> str:
    return f"cpu{cpu} {kind.value}/{move}"


# -- layer 3: reachability over (state, owner, copies) ------------------------


def _protocol_edges(
    config: Config, n_cpus: int, exercised: Set[CellKey]
) -> Iterator[Tuple[str, Union[Config, Exception]]]:
    """Layer 3's edges: the plain Tables 1-2 steps, raises included.

    Every table cell a step goes through lands in *exercised*.
    """
    for cpu, kind, decision, outcome in _steps(config, n_cpus):
        label = _label(cpu, kind, decision.value)
        if isinstance(outcome, Exception):
            yield label, outcome
            continue
        nxt, cell, _ = outcome
        if cell[0] != "first-touch":
            exercised.add(cell)
        yield label, nxt


def _explore(report: ModelCheckReport, n_cpus: int) -> None:
    """Layer 3: exhaustive reachability over abstract configurations."""
    exercised: Set[CellKey] = set()
    seen, _, failures = _walk(
        _START,
        lambda config: _protocol_edges(config, n_cpus, exercised),
        _config_invariant,
    )
    report.n_configs = len(seen)
    report.invariant_failures.extend(failures)
    # Every table cell must be reachable — a cell no walk exercises is
    # a dead transition (or the reachable space shrank by mistake).
    for kind, decision, key in product(AccessKind, _DECISIONS, StateKey):
        if (kind.value, decision, key) not in exercised:
            report.unreached_cells.append(
                _cell_name(kind, decision, key)
            )


# -- layer 4: TLB coherence over the same abstract walk ----------------------


def _tlb_invariant(config: TLBConfig) -> Optional[str]:
    """A TLB entry may only exist where the state permits a mapping."""
    state, owner, copies, cached = config
    if state is PageState.UNTOUCHED and cached:
        return f"UNTOUCHED page cached by {sorted(cached)}"
    if state is PageState.READ_ONLY and not cached <= copies:
        return (
            f"READ_ONLY cached by {sorted(cached)} but only "
            f"{sorted(copies)} hold copies"
        )
    if state is PageState.LOCAL_WRITABLE and not cached <= {owner}:
        return (
            f"LOCAL_WRITABLE owned by {owner} but cached by "
            f"{sorted(cached)}"
        )
    return None


def _tlb_edges(
    config: TLBConfig, n_cpus: int
) -> Iterator[Tuple[str, TLBConfig]]:
    """Layer 4's edges: protocol steps plus per-CPU TLB cache state.

    Successor configurations per access: the protocol step with its
    cleanup's invalidation edge applied, then the requester either
    filling its TLB (the engine's fast path resolved the block) or not
    (slow path only, or the fill was evicted) — both are explored.  A
    spontaneous ``pmap_remove_all`` edge (policy invalidation,
    fault-injection frame offlining) shoots down every cached entry
    while leaving the protocol configuration alone.
    """
    state, owner, copies, cached = config
    if cached:
        yield "pmap_remove_all", (state, owner, copies, frozenset())
    for cpu, kind, decision, outcome in _steps(config[:3], n_cpus):
        if isinstance(outcome, Exception):
            continue  # layer 3 reports unexpected raises
        nxt, _, cleanup = outcome
        # "unmap all" drops every mapping, so every cached entry, but
        # no copy: the one cleanup the two holder sets part ways on.
        survivors = (
            frozenset() if cleanup is Cleanup.UNMAP_ALL
            else _after_cleanup(cleanup, cpu, owner, cached)
        )
        for filled in (survivors | {cpu}, survivors - {cpu}):
            yield _label(cpu, kind, decision.value), (*nxt, filled)


def _explore_tlb(report: ModelCheckReport, n_cpus: int) -> None:
    """Layer 4: exhaustive reachability with per-CPU TLB cache state."""
    seen, _, failures = _walk(
        _START4,
        lambda config: _tlb_edges(config, n_cpus),
        _tlb_invariant,
        "cached",
    )
    report.n_tlb_configs = len(seen)
    report.tlb_failures.extend(failures)


# -- layer 5: multi-level (socket-tier) reachability --------------------------

#: Abstract configuration extended with the set of same-socket *remote
#: mappers* — processors mapped directly onto the owner's local frame
#: by the distance-aware override in :class:`NUMAManager.request`.
MLConfig = Tuple[PageState, Optional[int], FrozenSet[int], FrozenSet[int]]

#: The reduced abstract socket map layer 5 explores: two sockets of two
#: CPUs.  It is the smallest map exhibiting every relation the override
#: distinguishes (owner, same-socket non-owner, cross-socket CPU) while
#: still having a spare same-socket third party; like ``n_cpus=3`` for
#: layers 3-4, the space is symmetric in identity beyond that.
_ML_N_CPUS = 4


def _ml_same_socket(a: int, b: int) -> bool:
    return a // 2 == b // 2


def _ml_invariant(config: MLConfig) -> Optional[str]:
    """What a remote mapping may look like, restated abstractly.

    Remote mappers point into the owner's local frame, so they can only
    exist while a ``LOCAL_WRITABLE`` owner holds that frame; the live
    ``ActionExecutor.flush`` drops other mappers of freed frames
    precisely so none of these can dangle.
    """
    state, owner, copies, remote = config
    base = _config_invariant((state, owner, copies))
    if base is not None:
        return base
    if not remote:
        return None
    if state is not PageState.LOCAL_WRITABLE:
        return (
            f"{state.value} with remote mappers {sorted(remote)} "
            "(only LOCAL_WRITABLE pages have a frame to map)"
        )
    if owner in remote:
        return f"owner {owner} remote-maps its own frame"
    if remote & copies:
        return (
            f"remote mappers {sorted(remote & copies)} also hold copies"
        )
    strangers = {c for c in remote if not _ml_same_socket(c, owner)}
    if strangers:
        return (
            f"cross-socket remote mappers {sorted(strangers)} of owner "
            f"{owner} (the override is same-socket only)"
        )
    return None


def _ml_edges(
    config: MLConfig,
) -> Iterator[Tuple[str, Union[MLConfig, Exception]]]:
    """Layer 5's edges: Tables 1-2 plus the same-socket remote mapping.

    On a multi-level machine the NUMA manager turns a LOCAL decision for
    a ``LOCAL_WRITABLE`` page whose owner shares the requester's socket
    into a remote mapping of the owner's frame — no announced
    transition, no state change, just an extra mapper.  Every other step
    is the plain Tables 1-2 walk, with remote mappers surviving only
    while the owner's frame does (any cleanup that flushes the owner
    tears them down, mirroring ``ActionExecutor.flush``).
    """
    state, owner, copies, remote = config
    for cpu, kind, decision, outcome in _steps(config[:3], _ML_N_CPUS):
        label = _label(cpu, kind, decision.value)
        if (
            state is PageState.LOCAL_WRITABLE
            and decision is PlacementDecision.LOCAL
            and owner is not None
            and owner != cpu
            and _ml_same_socket(owner, cpu)
        ):
            # The distance-aware override: map, do not migrate.
            yield (
                _label(cpu, kind, "remote-map"),
                (state, owner, copies, remote | {cpu}),
            )
        elif isinstance(outcome, Exception):
            yield label, outcome
        else:
            nxt = outcome[0]
            keeps_owner_frame = (
                state is PageState.LOCAL_WRITABLE
                and nxt[0] is PageState.LOCAL_WRITABLE
                and nxt[1] == owner
            )
            yield label, (
                *nxt, remote if keeps_owner_frame else frozenset()
            )


def _explore_multilevel(report: ModelCheckReport) -> None:
    """Layer 5: reachability with the same-socket remote-mapping move."""
    seen, _, failures = _walk(
        _START4, _ml_edges, _ml_invariant, "remote"
    )
    report.n_ml_configs = len(seen)
    report.ml_failures.extend(failures)


def run_model_check(
    n_cpus: int = 3, topology: Optional["SocketTopology"] = None
) -> ModelCheckReport:
    """Run every layer and return the combined report.

    ``n_cpus=3`` is the smallest machine exhibiting all owner relations
    (requester, owner, third party); the abstract space is symmetric in
    processor identity beyond that.

    ``topology`` (a :class:`~repro.machine.topology.SocketTopology`)
    enables layer 5 when multi-level: the walk gains the same-socket
    remote-mapping move, always explored over the reduced
    two-sockets-of-two abstract map regardless of the real machine's
    size.  Flat topologies (or ``None``) skip the layer, so the classic
    report is unchanged.  Fewer than two CPUs is a usage error: no page
    could be owned on another node, so half the table would go unreached.
    """
    if n_cpus < 2:
        raise ConfigurationError(
            f"modelcheck needs at least 2 cpus (got {n_cpus}); "
            "below that no page can be owned on another node"
        )
    report = ModelCheckReport(n_cpus=n_cpus)
    _check_transcription(report)
    _check_totality(report)
    _check_cell_semantics(report)
    _explore(report, n_cpus)
    _explore_tlb(report, n_cpus)
    if topology is not None and topology.multilevel:
        _explore_multilevel(report)
    return report


# -- race realizability (the detector's interleaving cross-check) ------------
#
# The state space is fixed per process, so each exploration is memoized.


@lru_cache(maxsize=None)
def legal_transition_pairs(
    n_cpus: int = 3,
) -> FrozenSet[Tuple[PageState, PageState]]:
    """Every announced ``(old_state, new_state)`` pair the protocol allows.

    Walks the layer-3 reachable space and records the state pair of
    every legal step.  The race detector uses this to qualify an
    ``unguarded-state-write`` report: a shadow-state mismatch whose
    implied silent step is not even in this set cannot be an announced
    transition the detector somehow missed — it is an out-of-protocol
    write.
    """
    _, legal, _ = _walk(
        _START,
        lambda config: _protocol_edges(config, n_cpus, set()),
        _config_invariant,
    )
    return frozenset((source[0], nxt[0]) for source, nxt in legal)


@lru_cache(maxsize=None)
def stale_tlb_reachable(n_cpus: int = 2) -> bool:
    """Whether dropping one shootdown edge can reach a stale-TLB config.

    Walks the layer-4 space along *legal* edges, and for every one asks:
    if this step's invalidation edge were suppressed (the MMU mutated —
    protocol state advanced — but no TLB entry was shot down, the exact
    fault the fixtures plant), would the successor violate the TLB
    cache invariant?  ``True`` means a single missed shootdown is enough
    to corrupt coherence, i.e. a ``missed-shootdown`` report is
    realizable in the protocol's own state space, not an artifact of
    the detector.
    """
    _, legal, _ = _walk(
        _START4, lambda config: _tlb_edges(config, n_cpus), _tlb_invariant
    )
    return any(
        _tlb_invariant((*nxt[:3], source[3])) is not None
        for source, nxt in legal
    )
