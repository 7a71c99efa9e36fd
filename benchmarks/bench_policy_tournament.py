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

import pytest

from repro.exp.batch import run_batch
from repro.exp.cache import ResultCache
from repro.exp.grid import flatten, policy_tournament

from conftest import save_artifact

#: The bench_reconsider Gfetch configuration: long enough for expired
#: pins to pay off, skewed enough that fixed pinning visibly loses.
WORKLOAD_PARAMS = (("buffer_pages", 8), ("total_fetches", 400_000))

ENTRANTS = (
    ("move-threshold", ()),
    ("adaptive-threshold", ()),
    ("bandit", (("seed", 0),)),
)


@pytest.fixture(scope="module")
def tournament():
    [group] = policy_tournament(
        apps=["Gfetch"],
        policies=ENTRANTS,
        n_processors=7,
        workload_params=WORKLOAD_PARAMS,
    )
    return group


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> ResultCache:
    return ResultCache(tmp_path_factory.mktemp("tournament-cache"))


@pytest.fixture(scope="module")
def cold(tournament, cache):
    """The tournament's one cold run, into the module's cache."""
    return run_batch(flatten([tournament]), cache=cache)


def test_tournament_cold_run(cold):
    """Cold: every unique spec executes exactly once, into the cache."""
    assert cold.executed == cold.unique
    assert cold.cache_hits == 0
    save_artifact("policy_tournament.json", cold.results_json())


def test_tournament_warm_executes_nothing(tournament, cache, cold):
    """Warm: the same grid is served entirely from the cache."""
    warm = run_batch(flatten([tournament]), cache=cache)
    assert warm.executed == 0
    assert warm.cache_hits == warm.unique == cold.unique
    assert warm.results_json() == cold.results_json()


def test_adaptive_beats_fixed_threshold(tournament, cold):
    """The tentpole gate: adaptive > move-threshold(4) on Gfetch."""
    by_fp = {row.spec.fingerprint(): row.outcome for row in cold.rows}
    outcomes = {
        label: by_fp[spec.fingerprint()].result
        for label, spec in tournament.entrants.items()
    }
    baseline = outcomes["move-threshold"]
    adaptive = outcomes["adaptive-threshold"]
    assert adaptive.user_time_us < 0.9 * baseline.user_time_us
    assert adaptive.measured_alpha > baseline.measured_alpha + 0.25
    lines = ["Policy tournament on Gfetch (skewed write-once buffer):"]
    for label, result in outcomes.items():
        lines.append(
            f"  {label:24s} user {result.user_time_us / 1e6:7.3f}s  "
            f"alpha {result.measured_alpha:.3f}"
        )
    save_artifact("policy_tournament.txt", "\n".join(lines))
