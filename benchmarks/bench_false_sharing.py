"""Experiment E8 — the Section 4.2 false-sharing case studies.

Primes2 (``repro-numa false-sharing``): privatizing the divisor vector
raises α from ~0.66 to ~1.00 (the paper's exact numbers).  PlyTrace (no
command; this bench is its only definition): packing the framebuffer
bands onto shared pages (the untuned C-Threads layout) degrades α and γ;
the trace-driven detector must finger the packed pages.
"""

from __future__ import annotations

from repro.analysis.false_sharing import analyze
from repro.analysis.tracing import TraceCollector
from repro.core.policies import MoveThresholdPolicy
from repro.sim.harness import run_once
from repro.workloads.plytrace import PlyTrace

from conftest import assert_band, repro_numa, save_artifact


def test_primes2_divisor_placement():
    """Both α values, and the before/after shape: tuning buys back
    nearly all global references."""
    text, records = repro_numa("false-sharing")
    save_artifact("false-sharing.txt", text)
    shared, private = records
    assert not shared["private_divisors"] and private["private_divisors"]
    assert_band(
        shared["alpha"], shared["alpha_paper"], 0.08,
        "Primes2 shared-divisor alpha",
    )
    assert_band(
        private["alpha"], private["alpha_paper"], 0.04,
        "Primes2 private-divisor alpha",
    )
    assert private["alpha"] - shared["alpha"] > 0.25
    assert private["t_numa_s"] < shared["t_numa_s"]


def test_plytrace_packed_layout():
    """Packing framebuffer bands onto shared pages degrades placement."""
    padded = run_once(
        PlyTrace(n_polygons=2000),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        check_invariants=False,
    )
    packed = run_once(
        PlyTrace(n_polygons=2000, padded_framebuffer=False),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        check_invariants=False,
    )
    assert packed.measured_alpha < padded.measured_alpha - 0.10
    assert packed.user_time_us > padded.user_time_us
    text = (
        "PlyTrace framebuffer layout\n"
        f"  padded bands: alpha={padded.measured_alpha:.2f}\n"
        f"  packed bands: alpha={packed.measured_alpha:.2f}"
    )
    save_artifact("false_sharing_plytrace.txt", text)


def test_detector_fingers_the_packed_pages():
    """The trace analyzer finds the falsely shared pages mechanically."""
    trace = TraceCollector()
    run_once(
        PlyTrace(n_polygons=1000, padded_framebuffer=False),
        MoveThresholdPolicy(threshold=4),
        n_processors=7,
        observer=trace,
        check_invariants=False,
    )
    report = analyze(trace, dominance_threshold=0.6)
    # The packed framebuffer pages are writably shared...
    assert len(report.writably_shared_pages) >= 8
