"""Per-round time series: NUMAStats deltas and occupancy snapshots.

Final totals hide dynamics: the Table 4 move count for Primes2 cannot
show *when* false-sharing ping-pong happened or when the move-threshold
policy started pinning.  :class:`RoundSampler` subscribes to the event
bus, and every ``interval`` scheduling rounds records the difference
in :class:`~repro.core.stats.NUMAStats` plus page-pool and directory
occupancy, per-CPU simulated times, and the window's local-hit fraction
— so pinning onset, replication bursts, and ping-pong become curves.
Deltas are between two ``NUMAStats.as_dict()`` views, the records' dicts.

Sampling reads state and copies numbers; it never charges simulated
time, so results are bit-identical with and without the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.machine.timing import MemoryLocation

#: Default scheduling-round window between samples.
DEFAULT_INTERVAL = 32


@dataclass(frozen=True)
class RoundSample:
    """One point of the per-run time series.

    ``stats_delta`` holds the NUMA-manager counts accumulated during
    this window; the occupancy and time fields are point-in-time values
    at the window's end.
    """

    round_index: int
    window_rounds: int
    stats_delta: Dict[str, int]
    stats_total: Dict[str, int]
    pool_live_pages: int
    pool_capacity: int
    pool_pending_cleanups: int
    directory_pages: int
    pinned_pages: Optional[int]
    user_us: float
    system_us: float
    per_cpu_user_us: List[float]
    #: Local / all writable-data references issued during this window;
    #: ``None`` when the window had none.
    window_local_hit: Optional[float]
    per_cpu_window_local_hit: List[Optional[float]]
    #: Software-TLB hits / lookups during this window; ``None`` when the
    #: window had no lookups (e.g. the engine runs with fast_path off).
    window_tlb_hit: Optional[float] = None
    #: TLB shootdowns received across all CPUs during this window.
    window_tlb_shootdowns: int = 0

    def as_record(self) -> Dict[str, object]:
        """Flat record for the JSONL exporter."""
        return {
            "t": "sample",
            "round": self.round_index,
            "window": self.window_rounds,
            "delta": dict(self.stats_delta),
            "total": dict(self.stats_total),
            "pool_live": self.pool_live_pages,
            "pool_capacity": self.pool_capacity,
            "pool_pending": self.pool_pending_cleanups,
            "directory_pages": self.directory_pages,
            "pinned_pages": self.pinned_pages,
            "user_us": self.user_us,
            "system_us": self.system_us,
            "per_cpu_user_us": list(self.per_cpu_user_us),
            "local_hit": self.window_local_hit,
            "per_cpu_local_hit": list(self.per_cpu_window_local_hit),
            "tlb_hit": self.window_tlb_hit,
            "tlb_shootdowns": self.window_tlb_shootdowns,
        }


class RoundSampler:
    """Event-bus observer producing :class:`RoundSample` time series."""

    def __init__(
        self,
        machine,
        numa,
        pool,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"sampling interval must be >= 1, got {interval}"
            )
        self._machine = machine
        self._numa = numa
        self._pool = pool
        self._interval = interval
        self._samples: List[RoundSample] = []
        self._prev_stats = numa.stats.as_dict()
        self._prev_round = -1
        #: (local, total) writable-data references per CPU at window start.
        self._prev_refs = [self._cpu_refs(c) for c in machine.cpus]
        #: (hits, misses, shootdowns) summed over CPUs at window start.
        self._prev_tlb = self._tlb_totals()

    @property
    def interval(self) -> int:
        """Scheduling rounds between samples."""
        return self._interval

    @property
    def samples(self) -> List[RoundSample]:
        """The time series so far, in round order."""
        return self._samples

    # -- EventBus hooks ------------------------------------------------------

    def on_round_end(self, round_index: int) -> None:
        """Take a sample every ``interval`` rounds."""
        if (round_index - self._prev_round) >= self._interval:
            self._take(round_index)

    def on_run_end(self, rounds: int) -> None:
        """Flush the final partial window so runs always end on a sample."""
        if rounds - 1 > self._prev_round:
            self._take(rounds - 1)

    # -- sampling ------------------------------------------------------------

    @staticmethod
    def _cpu_refs(cpu) -> tuple:
        counters = cpu.data_refs
        return (counters.total_to(MemoryLocation.LOCAL), counters.total())

    def _tlb_totals(self) -> tuple:
        hits = misses = shootdowns = 0
        for cpu in self._machine.cpus:
            tlb = cpu.tlb
            hits += tlb.hits
            misses += tlb.misses
            shootdowns += tlb.shootdowns
        return (hits, misses, shootdowns)

    def _take(self, round_index: int) -> None:
        machine = self._machine
        stats = self._numa.stats.as_dict()
        prev_stats = self._prev_stats
        delta = {name: n - prev_stats[name] for name, n in stats.items()}
        per_cpu_user_us = machine.user_times_us()
        refs = [self._cpu_refs(c) for c in machine.cpus]
        per_cpu_hit: List[Optional[float]] = []
        window_local = 0
        window_total = 0
        for (local, total), (prev_local, prev_total) in zip(
            refs, self._prev_refs
        ):
            d_local = local - prev_local
            d_total = total - prev_total
            window_local += d_local
            window_total += d_total
            per_cpu_hit.append(d_local / d_total if d_total else None)
        policy = self._numa.policy
        pinned = getattr(policy, "pinned_count", None)
        tlb = self._tlb_totals()
        d_hits = tlb[0] - self._prev_tlb[0]
        d_lookups = d_hits + (tlb[1] - self._prev_tlb[1])
        d_shootdowns = tlb[2] - self._prev_tlb[2]
        self._samples.append(
            RoundSample(
                round_index=round_index,
                window_rounds=round_index - self._prev_round,
                stats_delta=delta,
                stats_total=stats,
                pool_live_pages=self._pool.live_pages,
                pool_capacity=self._pool.capacity,
                pool_pending_cleanups=self._pool.pending_cleanups,
                directory_pages=len(self._numa.directory),
                pinned_pages=pinned,
                user_us=sum(per_cpu_user_us),
                system_us=machine.total_system_time_us(),
                per_cpu_user_us=per_cpu_user_us,
                window_local_hit=(
                    window_local / window_total if window_total else None
                ),
                per_cpu_window_local_hit=per_cpu_hit,
                window_tlb_hit=(
                    d_hits / d_lookups if d_lookups else None
                ),
                window_tlb_shootdowns=d_shootdowns,
            )
        )
        self._prev_stats = stats
        self._prev_round = round_index
        self._prev_refs = refs
        self._prev_tlb = tlb
