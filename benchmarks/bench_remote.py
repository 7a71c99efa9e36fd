"""Ablation A8 — remote references (Section 4.4).

The paper implemented only LOCAL/GLOBAL placement and asked whether
reference patterns are ever "lopsided enough to make remote references
profitable".  With the extension implemented, the question is
quantitative: sweep the dominant thread's share of the traffic and
compare automatic placement (the hot region is pinned in global memory)
against pragma-driven home-node placement (dominant user local, others
remote).

On ACE latencies (local fetch 0.65 µs, global 1.5 µs, remote 2.2 µs) the
break-even sits near a ~50 % dominant share for a fetch-heavy mix —
remote references pay off only for strongly lopsided data, supporting the
paper's decision not to rely on them without pragmas.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.policies import HomeNodePolicy, MoveThresholdPolicy
from repro.core.policies.pragma import Pragma
from repro.sim.harness import run_once
from repro.workloads.lopsided import LopsidedSharing

from conftest import save_artifact

SHARES = (0.2, 0.35, 0.5, 0.7, 0.9)


@pytest.fixture(scope="module")
def runs():
    """(automatic, home-node) results per dominant share."""
    return {
        share: (
            run_once(
                LopsidedSharing(dominant_share=share),
                MoveThresholdPolicy(threshold=4),
                n_processors=7,
                check_invariants=False,
            ),
            run_once(
                LopsidedSharing(dominant_share=share, pragma=Pragma.REMOTE),
                HomeNodePolicy(MoveThresholdPolicy(threshold=4)),
                n_processors=7,
                check_invariants=False,
            ),
        )
        for share in SHARES
    }


@pytest.mark.parametrize("share", SHARES)
def test_lopsidedness_sweep(runs, share):
    _, remote = runs[share]
    assert remote.stats.remote_mappings > 0
    assert remote.stats.moves == 0  # the home never changes


def test_crossover_shape(runs):
    """Remote placement must lose when balanced and win when lopsided."""
    totals: Dict[float, Dict[str, float]] = {
        share: {
            "automatic": automatic.user_time_us + automatic.system_time_us,
            "remote": remote.user_time_us + remote.system_time_us,
        }
        for share, (automatic, remote) in runs.items()
    }
    # Balanced traffic: everyone pays the remote premium — automatic
    # (global) placement wins.
    assert totals[0.2]["remote"] > totals[0.2]["automatic"]
    # Strongly lopsided: the dominant user's local references win.
    assert totals[0.7]["remote"] < totals[0.7]["automatic"]
    assert totals[0.9]["remote"] < totals[0.9]["automatic"]
    # The advantage is monotone in the dominant share.
    gains = [totals[s]["automatic"] - totals[s]["remote"] for s in SHARES]
    assert gains == sorted(gains)
    lines = ["Remote references vs automatic placement (Section 4.4)"]
    for share in SHARES:
        auto = totals[share]["automatic"] / 1e6
        rem = totals[share]["remote"] / 1e6
        winner = "remote" if rem < auto else "automatic"
        lines.append(
            f"  dominant share {share:.0%}: automatic {auto:.3f}s  "
            f"remote {rem:.3f}s  -> {winner}"
        )
    save_artifact("remote.txt", "\n".join(lines))
