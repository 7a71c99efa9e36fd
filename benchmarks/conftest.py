"""Shared helpers for the paper-shape suite.

**A bench never runs or renders an experiment the package can already
run or render, and never reads a host clock.**  Every measured number
comes from ``repro-numa <command>``: a bench calls the command through
:func:`repro_numa`, asserts the paper's *shape* on its ``--json``
records and saves its stdout, byte for byte, under ``_artifacts/`` — a
committed artifact is what HEAD prints.  An experiment with no command
keeps its own run here, as its only definition.  All of it is simulated
time, so the suite is deterministic and CI runs it whole; host time is
the performance ledger's (``benchmarks/ledger/``, ``BENCHMARK.json``).
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile
from typing import Dict, List, Optional, Tuple

import pytest

from repro.cli import main
from repro.obs.exporters import read_jsonl

ARTIFACTS = pathlib.Path(__file__).parent / "_artifacts"


def repro_numa(*argv: str) -> Tuple[str, List[Dict[str, object]]]:
    """Run ``repro-numa *argv`` in-process: its stdout and ``--json`` records."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        records_path = pathlib.Path(tmp) / "records.jsonl"
        with contextlib.redirect_stdout(stdout):
            status = main([*argv, "--json", str(records_path)])
        assert status == 0, f"repro-numa {' '.join(argv)} exited {status}"
        return stdout.getvalue(), read_jsonl(records_path)


@pytest.fixture(scope="session")
def evaluation_cache(tmp_path_factory) -> str:
    """The one ``--cache-dir`` every evaluation-shaped call is handed.

    ``table3``, ``table4`` and ``alpha`` resolve to the same 24 spec
    fingerprints, so a session simulates them once.
    """
    return str(tmp_path_factory.mktemp("evaluation-cache"))


def save_artifact(name: str, text: str) -> pathlib.Path:
    """Write a command's stdout (or a bench-only table) under _artifacts/."""
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / name
    path.write_text(text if text.endswith("\n") else text + "\n")
    return path


def assert_band(
    measured: Optional[float],
    paper: Optional[float],
    absolute: float,
    label: str,
) -> None:
    """Assert a measured value is within an absolute band of the paper's.

    ``None`` values (the paper's "na") must match in kind.
    """
    if paper is None:
        assert measured is None or absolute >= 1.0, (
            f"{label}: paper reports na, measured {measured}"
        )
        return
    assert measured is not None, f"{label}: measured na, paper {paper}"
    assert abs(measured - paper) <= absolute, (
        f"{label}: measured {measured:.3f} vs paper {paper:.3f} "
        f"(band ±{absolute})"
    )
