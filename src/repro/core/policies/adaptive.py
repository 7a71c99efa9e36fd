"""Adaptive placement policies (the ROADMAP's "adaptive and learned" item).

Three policies beyond the paper's fixed move-threshold, each built from
signals the simulator already exposes:

* :class:`AdaptiveThresholdPolicy` — generalizes
  :class:`~repro.core.policies.reconsider.ReconsiderPolicy`: pins expire
  per page with exponential backoff (a page that keeps earning its pin
  back stays pinned longer each time), move counts decay over simulated
  time so old mobility is forgiven, and write-shared pages observed on
  many processors pin sooner than private ones.
* :class:`BandwidthAwarePolicy` — models interconnect contention with a
  queueing-style ledger (:class:`~repro.machine.timing.
  InterconnectContention`) fed by migration traffic and the page-table
  counters, and prefers remote mapping or global placement over
  migrating a page across a congested link (Bandwidth-Aware Page
  Placement, PAPERS.md).
* :class:`BanditPolicy` — a seeded epsilon-greedy/UCB tuner that picks
  among candidate move thresholds per page class, rewarded by the
  α/elapsed-µs signals it mirrors into its own metrics registry each
  epoch (MAO, PAPERS.md).  Deterministic per seed, like the chaos
  harness.

None of these charge simulated time differently from the paper's
machine model: contention stretches *decisions*, never the charged
microseconds, so the golden ACE results are unaffected by this module's
existence.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.core.policies.move_threshold import (
    DEFAULT_MOVE_THRESHOLD,
    MoveThresholdPolicy,
)
from repro.core.policies.reconsider import ReconsiderPolicy
from repro.core.policy import NUMAPolicy
from repro.core.state import AccessKind, PageLike, PlacementDecision
from repro.errors import ConfigurationError
from repro.machine.timing import (
    BUS_EDGE,
    InterconnectContention,
    MemoryLocation,
)
from repro.obs.metrics import MetricsRegistry

#: AdaptiveThresholdPolicy defaults: first pin lifetime, growth per
#: re-pin, and the lifetime cap (32x the base interval).
DEFAULT_ADAPTIVE_INTERVAL_US = 30_000.0
DEFAULT_BACKOFF = 2.0
DEFAULT_MAX_INTERVAL_US = 960_000.0
#: Distinct owners before a page is classed as heavily write-shared.
DEFAULT_CONTENDED_OWNERS = 4

#: BandwidthAwarePolicy defaults: utilization above which a migration
#: path counts as congested, and the contention ledger's window.
DEFAULT_CONGESTION = 0.5
DEFAULT_WINDOW_US = 20_000.0
DEFAULT_MAX_FACTOR = 8.0

#: BanditPolicy defaults.
DEFAULT_EPSILON = 0.1
DEFAULT_CANDIDATES = "0,2,4,8"
DEFAULT_EPOCH_US = 25_000.0
DEFAULT_STRATEGY = "egreedy"


class AdaptiveThresholdPolicy(ReconsiderPolicy):
    """Per-page pin lifetimes with backoff, per-class thresholds, decay.

    :class:`~repro.core.policies.reconsider.ReconsiderPolicy` expires
    every pin after one fixed interval; this policy keeps the expiry
    idea but adapts it per page and per class over simulated time:

    * **backoff** — a page's first pin lasts ``interval_us``; each time
      the page earns its pin back after an expiry, the next lifetime is
      multiplied by ``backoff`` (capped at ``max_interval_us``).  Pages
      that genuinely ping-pong (the paper's reason for pinning) converge
      to long pins; pages pinned by a one-off burst — Gfetch's
      write-once buffer — are reconsidered quickly and re-replicate.
    * **per-class thresholds** — a page observed
      LOCAL_WRITABLE on ``contended_owners`` or more distinct
      processors is write-shared by many parties; it pins after
      ``contended_threshold`` moves (default half the base threshold)
      instead of riding out the full budget.
    * **decay** — move counts of unpinned pages halve every
      ``interval_us`` of simulated time, so mobility long past does not
      count against a page that has since settled.

    With ``backoff=1``, ``contended_owners`` out of reach and decay
    idle, the policy degenerates to exactly ``ReconsiderPolicy``.
    """

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_MOVE_THRESHOLD,
        interval_us: float = DEFAULT_ADAPTIVE_INTERVAL_US,
        backoff: float = DEFAULT_BACKOFF,
        max_interval_us: float = DEFAULT_MAX_INTERVAL_US,
        contended_owners: int = DEFAULT_CONTENDED_OWNERS,
        contended_threshold: Optional[int] = None,
    ) -> None:
        super().__init__(threshold=threshold, interval_us=interval_us)
        if backoff < 1.0:
            raise ConfigurationError("backoff cannot shrink pin lifetimes")
        if max_interval_us < interval_us:
            raise ConfigurationError(
                "max_interval_us cannot be below interval_us"
            )
        if contended_owners < 2:
            raise ConfigurationError(
                "contended_owners needs at least two distinct owners"
            )
        if contended_threshold is None:
            contended_threshold = max(1, threshold // 2)
        if contended_threshold < 0:
            raise ConfigurationError("contended threshold cannot be negative")
        self._backoff = float(backoff)
        self._max_interval_us = float(max_interval_us)
        self._contended_owners = int(contended_owners)
        self._contended_threshold = int(contended_threshold)
        self._owners_seen: Dict[int, Set[int]] = {}
        #: Lifetime of each page's *current* pin.
        self._pin_interval: Dict[int, float] = {}
        #: Lifetime the page's *next* pin will get (grows by backoff).
        self._next_interval: Dict[int, float] = {}
        self._last_decay_us = 0.0
        self.name = (
            f"adaptive-threshold({threshold},{interval_us:g}us,"
            f"x{backoff:g})"
        )

    def effective_threshold(self, page_id: int) -> int:
        """The move budget this page is currently judged against."""
        owners = self._owners_seen.get(page_id)
        if owners is not None and len(owners) >= self._contended_owners:
            return self._contended_threshold
        return self._threshold

    def note_owner(self, page: PageLike, cpu: int) -> None:
        self._owners_seen.setdefault(page.page_id, set()).add(cpu)

    def note_move(self, page: PageLike) -> None:
        page_id = page.page_id
        count = self._moves.get(page_id, 0) + 1
        self._moves[page_id] = count
        if page_id not in self._pinned and count > self.effective_threshold(
            page_id
        ):
            self._pinned.add(page_id)
            self._pinned_at[page_id] = self._now_us
            lifetime = self._next_interval.get(page_id, self._interval_us)
            self._pin_interval[page_id] = lifetime
            self._next_interval[page_id] = min(
                self._max_interval_us, lifetime * self._backoff
            )

    def tick(self, now_us: float) -> None:
        self._now_us = now_us
        expired = [
            page_id
            for page_id, when in self._pinned_at.items()
            if now_us - when
            >= self._pin_interval.get(page_id, self._interval_us)
        ]
        for page_id in expired:
            del self._pinned_at[page_id]
            self._pin_interval.pop(page_id, None)
            self._pinned.discard(page_id)
            self._moves.pop(page_id, None)
            self._unpinned_total += 1
            self._pending_invalidations.add(page_id)
        periods = int((now_us - self._last_decay_us) // self._interval_us)
        if periods > 0:
            self._last_decay_us += periods * self._interval_us
            shift = min(periods, 32)
            for page_id in list(self._moves):
                if page_id in self._pinned:
                    continue
                decayed = self._moves[page_id] >> shift
                if decayed:
                    self._moves[page_id] = decayed
                else:
                    del self._moves[page_id]

    def note_page_freed(self, page: PageLike) -> None:
        super().note_page_freed(page)
        self._owners_seen.pop(page.page_id, None)
        self._pin_interval.pop(page.page_id, None)
        self._next_interval.pop(page.page_id, None)


class BandwidthAwarePolicy(MoveThresholdPolicy):
    """Avoid migrating pages across congested interconnect links.

    The move-threshold mechanism is unchanged; what changes is the
    answer for a *write* that would migrate a page owned elsewhere.  The
    policy keeps an :class:`~repro.machine.timing.InterconnectContention`
    ledger fed by its own migration traffic (each ownership transfer
    charges one page-copy's worth of busy time to the edge it crossed)
    and, on socket machines, by the shared page-table traffic from
    :meth:`~repro.machine.machine.Machine.topology_counters`.  When the
    migration path's utilization exceeds ``congestion``, the page is not
    migrated: the contended timing oracle
    (:meth:`~repro.machine.timing.TimingModel.contended_fetch_us`)
    prices a remote reference against a global one under the current
    stretch, and the cheaper of REMOTE (remote mapping, Section 4.4) or
    GLOBAL is answered instead.

    The ledger informs decisions only; charged simulated time always
    comes from the unstretched machine model, preserving the paper's
    contention-free timing contract.
    """

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_MOVE_THRESHOLD,
        congestion: float = DEFAULT_CONGESTION,
        window_us: float = DEFAULT_WINDOW_US,
        max_factor: float = DEFAULT_MAX_FACTOR,
    ) -> None:
        super().__init__(threshold=threshold)
        if not 0.0 < congestion < 1.0:
            raise ConfigurationError(
                "congestion must be a utilization in (0, 1)"
            )
        if window_us <= 0:
            raise ConfigurationError("contention window must be positive")
        self._congestion = float(congestion)
        self._window_us = float(window_us)
        self._max_factor = float(max_factor)
        self._owner: Dict[int, int] = {}
        self._machine = None
        self._timing = None
        self._contention: Optional[InterconnectContention] = None
        self._pagetable_us_seen = 0.0
        self._now_us = 0.0
        self.name = (
            f"bandwidth-aware({threshold},rho{congestion:g},"
            f"{window_us:g}us)"
        )

    @property
    def contention(self) -> Optional[InterconnectContention]:
        """The live ledger (``None`` until bound to a machine)."""
        return self._contention

    def bind_machine(self, machine) -> None:
        """Attach the machine whose interconnect this policy watches.

        Called by :func:`repro.sim.harness.build_simulation`; gives the
        policy the timing oracle and the socket topology for per-edge
        accounting.
        """
        self._machine = machine
        self._timing = machine.timing
        self._contention = InterconnectContention(
            window_us=self._window_us,
            max_factor=self._max_factor,
            topology=machine.timing.topology,
        )
        self._pagetable_us_seen = self._pagetable_us(machine)

    @staticmethod
    def _pagetable_us(machine) -> float:
        counters = machine.topology_counters()
        walk = counters.get("pt_walk_us", 0.0) or 0.0
        update = counters.get("pt_update_us", 0.0) or 0.0
        return float(walk) + float(update)

    def _edge_load(self, edge) -> float:
        """Utilization of *edge*, plus the shared spine when distinct.

        A cross-socket migration occupies both its socket-pair link and
        the shared bus the global modules (and the centralized page
        table) sit on, so both loads gate the migration decision.
        """
        contention = self._contention
        load = contention.utilization(edge)
        if edge != BUS_EDGE:
            load += contention.utilization(BUS_EDGE)
        return load

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if page.page_id in self._pinned:
            return PlacementDecision.GLOBAL
        owner = self._owner.get(page.page_id)
        if (
            kind is AccessKind.WRITE
            and owner is not None
            and owner != cpu
            and self._contention is not None
        ):
            edge = self._contention.edge_between(owner, cpu)
            if self._edge_load(edge) > self._congestion:
                remote = self._timing.contended_fetch_us(
                    MemoryLocation.REMOTE, self._contention, edge
                )
                global_ = self._timing.contended_fetch_us(
                    MemoryLocation.GLOBAL, self._contention, BUS_EDGE
                )
                if remote <= global_:
                    return PlacementDecision.REMOTE
                return PlacementDecision.GLOBAL
        return PlacementDecision.LOCAL

    def note_owner(self, page: PageLike, cpu: int) -> None:
        previous = self._owner.get(page.page_id)
        self._owner[page.page_id] = cpu
        if (
            previous is not None
            and previous != cpu
            and self._contention is not None
        ):
            edge = self._contention.edge_between(previous, cpu)
            busy = self._timing.page_copy_us(
                MemoryLocation.GLOBAL, MemoryLocation.LOCAL
            )
            self._contention.record(edge, busy, self._now_us)

    def tick(self, now_us: float) -> None:
        self._now_us = now_us
        if self._contention is None:
            return
        self._contention.advance(now_us)
        if self._machine is not None:
            total = self._pagetable_us(self._machine)
            delta = total - self._pagetable_us_seen
            if delta > 0:
                self._pagetable_us_seen = total
                self._contention.record(BUS_EDGE, delta, now_us)

    def note_page_freed(self, page: PageLike) -> None:
        super().note_page_freed(page)
        self._owner.pop(page.page_id, None)


def parse_candidates(text: str) -> Tuple[int, ...]:
    """Parse a ``"0,2,4,8"`` candidate-threshold string.

    Candidates travel as a delimited string (not a list) so they stay a
    hashable scalar inside the frozen, fingerprintable
    :class:`~repro.exp.spec.RunSpec` ``policy_params`` pairs.  ``+`` is
    accepted as an alternative separator because the CLI's
    ``--policies name:k=v,k2=v2`` syntax claims the comma
    (``bandit:candidates=0+2+4+8``).
    """
    try:
        candidates = tuple(
            int(part.strip())
            for part in str(text).replace("+", ",").split(",")
            if part.strip()
        )
    except ValueError as error:
        raise ConfigurationError(
            f"bad candidate thresholds {text!r}: {error}"
        ) from None
    if not candidates:
        raise ConfigurationError("candidate threshold list is empty")
    if any(candidate < 0 for candidate in candidates):
        raise ConfigurationError("candidate thresholds cannot be negative")
    return candidates


class BanditPolicy(NUMAPolicy):
    """Online move-threshold tuning as a multi-armed bandit.

    Each page class (``data``: writable regions; ``text``: read-only)
    holds one *arm* — a candidate move threshold — and the policy runs
    the standard move-count/pin mechanism against the class's current
    arm.  Every ``epoch_us`` of simulated time it closes an epoch:

    1. sample the bound machine's cumulative local/total data references
       and elapsed µs, mirror them into the policy's own
       :class:`~repro.obs.metrics.MetricsRegistry`,
    2. read the epoch deltas back from that registry and score the arm:
       the epoch's local fraction (an α proxy) discounted by how much
       the epoch's elapsed time overran the epoch length —
       ``alpha * epoch_us / max(epoch_us, elapsed_us)``,
    3. pick the next arm: epsilon-greedy (explore with probability
       ``epsilon``, else the best observed mean) or UCB1 when
       ``strategy="ucb"``.

    Arm switches un-pin the affected class's pages and queue their
    mappings for invalidation, so the new threshold actually takes
    effect.  All randomness comes from one ``random.Random(seed)``
    consumed at epoch boundaries only: the same seed over the same
    deterministic simulation yields byte-identical decisions.
    """

    #: Arm switches un-pin live pages by design; the sanitizer's
    #: pin-stays-pinned check exempts policies that say so.
    reconsiders_pinning = True

    #: Page classes, in the (fixed) order their arms are updated.
    CLASSES = ("data", "text")

    def __init__(
        self,
        *,
        epsilon: float = DEFAULT_EPSILON,
        seed: int = 0,
        candidates: str = DEFAULT_CANDIDATES,
        epoch_us: float = DEFAULT_EPOCH_US,
        strategy: str = DEFAULT_STRATEGY,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError("epsilon must be a probability")
        if epoch_us <= 0:
            raise ConfigurationError("epoch length must be positive")
        if strategy not in ("egreedy", "ucb"):
            raise ConfigurationError(
                f"unknown bandit strategy {strategy!r}; "
                "choose from egreedy, ucb"
            )
        self._epsilon = float(epsilon)
        self._seed = int(seed)
        self._candidates = parse_candidates(candidates)
        self._epoch_us = float(epoch_us)
        self._strategy = str(strategy)
        self._rng = random.Random(self._seed)
        #: The policy's own instrument panel; rewards are *read back*
        #: from here, so the registry is the reward plumbing, not just
        #: an exhaust.
        self.metrics = MetricsRegistry()
        start = min(
            range(len(self._candidates)),
            key=lambda i: (
                abs(self._candidates[i] - DEFAULT_MOVE_THRESHOLD),
                i,
            ),
        )
        self._arm: Dict[str, int] = {cls: start for cls in self.CLASSES}
        self._pulls: Dict[str, List[int]] = {
            cls: [0] * len(self._candidates) for cls in self.CLASSES
        }
        self._reward_sum: Dict[str, List[float]] = {
            cls: [0.0] * len(self._candidates) for cls in self.CLASSES
        }
        self._moves: Dict[int, int] = {}
        self._pinned: Set[int] = set()
        self._class_of: Dict[int, str] = {}
        self._pending_invalidations: Set[int] = set()
        self._machine = None
        self._epoch_start_us = 0.0
        self._last_refs = 0
        self._last_local = 0
        self._last_elapsed = 0.0
        #: ``(now_us, class, chosen threshold)`` per epoch decision.
        self.history: List[Tuple[float, str, int]] = []
        self.name = (
            f"bandit({self._strategy},eps={self._epsilon:g},"
            f"seed={self._seed})"
        )

    @property
    def candidates(self) -> Tuple[int, ...]:
        """The candidate move thresholds (the bandit's arms)."""
        return self._candidates

    def current_threshold(self, page_class: str) -> int:
        """The arm (move threshold) *page_class* is currently playing."""
        return self._candidates[self._arm[page_class]]

    def bind_machine(self, machine) -> None:
        """Attach the machine whose counters provide the reward signal."""
        self._machine = machine

    @staticmethod
    def _class_for(page: PageLike) -> str:
        return "data" if getattr(page, "writable_data", True) else "text"

    def cache_policy(
        self, page: PageLike, kind: AccessKind, cpu: int
    ) -> PlacementDecision:
        if page.page_id in self._pinned:
            return PlacementDecision.GLOBAL
        return PlacementDecision.LOCAL

    def note_move(self, page: PageLike) -> None:
        page_id = page.page_id
        page_class = self._class_for(page)
        self._class_of[page_id] = page_class
        count = self._moves.get(page_id, 0) + 1
        self._moves[page_id] = count
        if count > self.current_threshold(page_class):
            self._pinned.add(page_id)

    def note_degraded(self, page: PageLike) -> None:
        self._pinned.add(page.page_id)
        # Degraded pins are the manager's, not an arm's: forget the
        # class so arm switches never un-pin a degraded page.
        self._class_of.pop(page.page_id, None)

    def note_page_freed(self, page: PageLike) -> None:
        self._moves.pop(page.page_id, None)
        self._pinned.discard(page.page_id)
        self._class_of.pop(page.page_id, None)
        self._pending_invalidations.discard(page.page_id)

    def is_pinned(self, page_id: int) -> bool:
        """Whether the policy has pinned the given page."""
        return page_id in self._pinned

    def move_counts(self) -> Dict[int, int]:
        """Per-page ownership-move counts (telemetry's move histogram)."""
        return dict(self._moves)

    # -- the reward loop -----------------------------------------------------

    def _sample_reward(self) -> Optional[float]:
        """Mirror machine counters into the registry; score the epoch."""
        machine = self._machine
        if machine is None:
            return None
        refs = 0
        local = 0
        elapsed = 0.0
        for cpu in machine.cpus:
            refs += cpu.data_refs.total()
            local += cpu.data_refs.total_to(MemoryLocation.LOCAL)
            elapsed += cpu.total_time_us
        refs_counter = self.metrics.counter("bandit_data_refs")
        local_counter = self.metrics.counter("bandit_local_refs")
        elapsed_counter = self.metrics.counter("bandit_elapsed_us")
        refs_counter.inc(refs - self._last_refs)
        local_counter.inc(local - self._last_local)
        elapsed_counter.inc(elapsed - self._last_elapsed)
        # Reward reads come from the registry, closing the loop the
        # docstring describes: registry totals minus the last epoch's.
        delta_refs = refs_counter.value - self._last_refs
        delta_local = local_counter.value - self._last_local
        delta_elapsed = elapsed_counter.value - self._last_elapsed
        self._last_refs = refs_counter.value
        self._last_local = local_counter.value
        self._last_elapsed = elapsed_counter.value
        if delta_refs <= 0:
            return None
        alpha = delta_local / delta_refs
        stretch = max(self._epoch_us, float(delta_elapsed))
        reward = alpha * (self._epoch_us / stretch)
        self.metrics.gauge("bandit_epoch_alpha").set(alpha)
        self.metrics.gauge("bandit_epoch_reward").set(reward)
        return reward

    def _choose(self, page_class: str) -> int:
        """The next arm index for *page_class* (consumes the RNG)."""
        pulls = self._pulls[page_class]
        rewards = self._reward_sum[page_class]
        if self._strategy == "ucb":
            total = sum(pulls)
            for index, count in enumerate(pulls):
                if count == 0:
                    return index
            return max(
                range(len(pulls)),
                key=lambda i: (
                    rewards[i] / pulls[i]
                    + math.sqrt(2.0 * math.log(total) / pulls[i]),
                    -i,
                ),
            )
        if self._rng.random() < self._epsilon:
            return self._rng.randrange(len(self._candidates))
        played = [i for i, count in enumerate(pulls) if count > 0]
        if not played:
            return self._arm[page_class]
        return max(played, key=lambda i: (rewards[i] / pulls[i], -i))

    def tick(self, now_us: float) -> None:
        if now_us - self._epoch_start_us < self._epoch_us:
            return
        self._epoch_start_us = now_us
        reward = self._sample_reward()
        for page_class in self.CLASSES:
            arm = self._arm[page_class]
            if reward is not None:
                self._pulls[page_class][arm] += 1
                self._reward_sum[page_class][arm] += reward
            chosen = self._choose(page_class)
            if chosen != arm:
                self._arm[page_class] = chosen
                self._switch_class(page_class)
            self.history.append(
                (now_us, page_class, self._candidates[self._arm[page_class]])
            )
            self.metrics.gauge(f"bandit_arm_{page_class}").set(
                self._candidates[self._arm[page_class]]
            )

    def _switch_class(self, page_class: str) -> None:
        """Reset *page_class* pages so the new threshold takes effect."""
        for page_id, cls in list(self._class_of.items()):
            if cls != page_class:
                continue
            self._moves.pop(page_id, None)
            if page_id in self._pinned:
                self._pinned.discard(page_id)
                self._pending_invalidations.add(page_id)

    def take_invalidations(self) -> list:
        pending = sorted(self._pending_invalidations)
        self._pending_invalidations.clear()
        return pending
