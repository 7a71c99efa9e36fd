"""Ablation A7 — page size and false sharing.

Section 4.5 notes hardware caches "may also reduce the impact of false
sharing by performing their migration and replication at a granularity
(the cache line) significantly finer than the page".  The simulator can
turn that dial: the same packed-framebuffer PlyTrace run at 512-, 1024-
and 4096-word pages shows false sharing growing with the unit of
placement, while the padded layout is insensitive to it.
"""

from __future__ import annotations

import functools

from repro.core.policies import MoveThresholdPolicy
from repro.machine.config import ace_config
from repro.sim.harness import run_once
from repro.workloads.plytrace import PlyTrace

from conftest import save_artifact

PAGE_SIZES = (512, 1024, 4096)


@functools.lru_cache(maxsize=None)
def _alpha(page_words: int, padded: bool) -> float:
    config = ace_config(7, page_size_words=page_words)
    result = run_once(
        PlyTrace(n_polygons=1500, padded_framebuffer=padded),
        MoveThresholdPolicy(threshold=4),
        machine_config=config,
        check_invariants=False,
    )
    return result.measured_alpha


def test_false_sharing_grows_with_page_size():
    alphas = {words: _alpha(words, padded=False) for words in PAGE_SIZES}
    assert alphas[512] > alphas[4096] + 0.1, alphas
    assert alphas[512] >= alphas[1024] >= alphas[4096]


def test_padded_layout_is_insensitive_to_page_size():
    alphas = {words: _alpha(words, padded=True) for words in PAGE_SIZES}
    spread = max(alphas.values()) - min(alphas.values())
    assert spread < 0.08, alphas


def test_page_size_report():
    lines = ["PlyTrace alpha vs placement granularity (words per page)"]
    for padded, label in ((True, "padded"), (False, "packed")):
        row = "  " + label + ": "
        row += "  ".join(
            f"{words}w={_alpha(words, padded):.2f}" for words in PAGE_SIZES
        )
        lines.append(row)
    save_artifact("page_size.txt", "\n".join(lines))
