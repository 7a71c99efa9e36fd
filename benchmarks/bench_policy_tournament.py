"""Ablation A16 — the policy tournament, served through the result cache.

The adaptive-policy claim, stated as a gate: on a skewed workload
(Gfetch's write-once-then-read buffer, the configuration
``bench_reconsider`` already uses), :class:`~repro.core.policies.
adaptive.AdaptiveThresholdPolicy` must beat the paper's fixed
``move-threshold(4)`` — more local references (higher α) *and* less
user time — because its pins expire and let the buffer re-replicate.

The tournament itself runs once, cold, through
:func:`~repro.exp.batch.run_batch` and an on-disk
:class:`~repro.exp.cache.ResultCache`; a second invocation of the same
grid must execute **zero** specs and produce a byte-identical results
document.  That is the cache contract the ``--grid tournament`` CLI
path relies on, asserted here against real (non-quick) runs.
"""

from __future__ import annotations

import tempfile
from typing import Dict, Optional

from repro.exp.batch import BatchResult, run_batch
from repro.exp.cache import ResultCache
from repro.exp.grid import PlacementGroup, flatten, policy_tournament

from conftest import once, save_artifact

#: The bench_reconsider Gfetch configuration: long enough for expired
#: pins to pay off, skewed enough that fixed pinning visibly loses.
WORKLOAD_PARAMS = (("buffer_pages", 8), ("total_fetches", 400_000))

ENTRANTS = (
    ("move-threshold", ()),
    ("adaptive-threshold", ()),
    ("bandit", (("seed", 0),)),
)

_cache_dir = tempfile.mkdtemp(prefix="repro-tournament-")
_tournament: Optional[PlacementGroup] = None
_cold: Optional[BatchResult] = None


def _grid() -> PlacementGroup:
    global _tournament
    if _tournament is None:
        [_tournament] = policy_tournament(
            apps=["Gfetch"],
            policies=ENTRANTS,
            n_processors=7,
            workload_params=WORKLOAD_PARAMS,
        )
    return _tournament


def test_tournament_cold_run(benchmark):
    """Cold: every unique spec executes exactly once, into the cache."""

    def cold() -> BatchResult:
        return run_batch(
            flatten([_grid()]), cache=ResultCache(_cache_dir)
        )

    global _cold
    _cold = once(benchmark, cold)
    assert _cold.executed == _cold.unique
    assert _cold.cache_hits == 0
    save_artifact("policy_tournament.json", _cold.results_json())


def test_tournament_warm_executes_nothing(benchmark):
    """Warm: the same grid is served entirely from the cache."""
    assert _cold is not None

    def warm() -> BatchResult:
        return run_batch(
            flatten([_grid()]), cache=ResultCache(_cache_dir)
        )

    batch = once(benchmark, warm)
    assert batch.executed == 0
    assert batch.cache_hits == batch.unique == _cold.unique
    assert batch.results_json() == _cold.results_json()


def test_adaptive_beats_fixed_threshold(benchmark):
    """The tentpole gate: adaptive > move-threshold(4) on Gfetch."""
    assert _cold is not None
    outcomes: Dict[str, object] = {}
    by_fp = {row.spec.fingerprint(): row.outcome for row in _cold.rows}
    for label, spec in _grid().entrants.items():
        outcomes[label] = by_fp[spec.fingerprint()].result

    def check() -> str:
        baseline = outcomes["move-threshold"]
        adaptive = outcomes["adaptive-threshold"]
        assert adaptive.user_time_us < 0.9 * baseline.user_time_us
        assert (
            adaptive.measured_alpha > baseline.measured_alpha + 0.25
        )
        lines = ["Policy tournament on Gfetch (skewed write-once buffer):"]
        for label, result in outcomes.items():
            lines.append(
                f"  {label:24s} user {result.user_time_us / 1e6:7.3f}s  "
                f"alpha {result.measured_alpha:.3f}"
            )
        return "\n".join(lines)

    text = once(benchmark, check)
    save_artifact("policy_tournament.txt", text)
    print(f"\n{text}")
