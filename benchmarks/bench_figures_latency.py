"""Experiments E1/E2 and E5/E6/E7 — Tables 1-2, Figures 1-2, latencies.

The figures are architecture diagrams, so "reproducing" them means
regenerating them from the live configuration and module wiring
(``repro-numa figures``) and checking the structural facts they encode.
The latency experiment (``repro-numa latency``) checks the quoted G/L
ratios against the timing model.  Tables 1-2 are printed from the live
transition structures by ``repro-numa tables12``; that their sixteen
cells match the paper is ``repro-numa modelcheck``'s job, so here the
command's output is only kept as the E1/E2 artifact.
"""

from __future__ import annotations

import pytest

from repro.analysis.paper import ACE_RATIOS
from repro.machine.config import TimingParameters

from conftest import repro_numa, save_artifact


def test_figures():
    text, _ = repro_numa("figures")
    save_artifact("figures.txt", text)
    # Figure 1: the paper's 7-processor ACE.
    assert "7 processor modules" in text
    assert "IPC bus" in text
    assert "8MB local" in text  # per-module local memory
    assert "16MB" in text  # global memory
    # Figure 2: the four modules of the pmap layer, wired as drawn.
    for module in (
        "Mach machine-independent VM",
        "pmap manager",
        "MMU interface",
        "NUMA manager",
        "NUMA policy",
        "cache_policy",
        "repro.vm.pmap",
        "repro.core.numa_manager",
    ):
        assert module in text


@pytest.mark.parametrize("processors", [2, 8])
def test_figure1_scales_with_configuration(processors):
    text, _ = repro_numa("figures", "--processors", str(processors))
    assert f"{processors} processor modules" in text


def test_latency_table():
    """Section 2.2's measured latencies and the quoted ratios."""
    text, records = repro_numa("latency")
    save_artifact("latency.txt", text)
    assert len(records) == 4
    for record in records:
        assert record["model"] == record["paper"], record["name"]
    timing = TimingParameters()
    assert timing.fetch_ratio == pytest.approx(ACE_RATIOS["fetch"], abs=0.02)
    assert timing.store_ratio == pytest.approx(ACE_RATIOS["store"], abs=0.05)
    assert timing.mix_ratio(0.45) == pytest.approx(
        ACE_RATIOS["mix_45pct_stores"], abs=0.05
    )


def test_tables12_artifact():
    text, _ = repro_numa("tables12")
    save_artifact("tables12.txt", text)
    assert "Table 1" in text and "Table 2" in text
