"""Experiment E3 — Table 3: the headline evaluation (``repro-numa table3``).

For each of the paper's eight applications the command runs the
three-measurement methodology (Tnuma / Tglobal / Tlocal on 7 simulated
processors) and solves Equations 1-5; the bench checks α, β and γ of
every row against the published one.  Bands are deliberately loose — we
claim shape, not digits — but tight enough that a placement regression
(e.g. read-only pages failing to replicate) fails loudly.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis.paper import TABLE_3
from repro.workloads import TABLE_3_WORKLOADS

from conftest import assert_band, repro_numa, save_artifact

#: Shape bands: |measured - paper| limits for alpha, beta, gamma.
BANDS: Dict[str, Tuple[float, float, float]] = {
    "ParMult": (1.0, 0.05, 0.05),  # alpha is na
    "Gfetch": (0.10, 0.10, 0.15),
    "IMatMult": (0.10, 0.06, 0.05),
    "Primes1": (0.05, 0.04, 0.03),
    "Primes2": (0.05, 0.05, 0.03),
    "Primes3": (0.12, 0.08, 0.10),
    "FFT": (0.06, 0.06, 0.04),
    "PlyTrace": (0.06, 0.06, 0.04),
}


@pytest.fixture(scope="module")
def rows(evaluation_cache) -> Dict[str, Dict[str, object]]:
    """``table3``'s evaluation rows by application; its stdout is E3."""
    stdout, records = repro_numa("table3", "--cache-dir", evaluation_cache)
    save_artifact("table3.txt", stdout)
    return {record["application"]: record for record in records}


@pytest.mark.parametrize("name", list(TABLE_3_WORKLOADS))
def test_table3_row(rows, name):
    row, paper = rows[name], TABLE_3[name]
    alpha_band, beta_band, gamma_band = BANDS[name]
    assert_band(row["alpha_model"], paper.alpha, alpha_band, f"{name} alpha")
    assert_band(row["beta"], paper.beta, beta_band, f"{name} beta")
    assert_band(row["gamma"], paper.gamma, gamma_band, f"{name} gamma")
    # Orderings the whole paper rests on.
    assert row["t_local_s"] <= row["t_numa_s"] * 1.01
    assert row["t_numa_s"] <= row["t_global_s"] * 1.01


def test_table3_shape_across_applications(rows):
    """Cross-application shape: who wins and by how much."""
    gamma = {name: row["gamma"] for name, row in rows.items()}
    assert set(gamma) == set(TABLE_3_WORKLOADS)
    # Gfetch is the catastrophe; Primes3 the worst real application;
    # everything else is within a few percent of Tlocal.
    assert gamma["Gfetch"] > 2.0
    assert 1.1 < gamma["Primes3"] < 1.5
    for name in ("ParMult", "IMatMult", "Primes1", "Primes2", "FFT",
                 "PlyTrace"):
        assert gamma[name] < 1.06, f"{name} gamma {gamma[name]}"
    # NUMA management recovers most of the global-placement penalty
    # for the high-alpha applications.
    for name in ("IMatMult", "Primes2", "FFT", "PlyTrace"):
        row = rows[name]
        saved = row["t_global_s"] - row["t_numa_s"]
        possible = row["t_global_s"] - row["t_local_s"]
        assert saved > 0.8 * possible, name


def test_evaluation_commands_share_one_cache(rows, evaluation_cache):
    """``table3``, ``table4`` and ``alpha`` are views of the same 24 runs:
    whichever filled the session cache, the others add nothing to it."""
    for command in ("table4", "alpha"):
        repro_numa(command, "--cache-dir", evaluation_cache)
    _, listing = repro_numa("cache", "ls", "--cache-dir", evaluation_cache)
    assert sum(record["t"] == "cache_entry" for record in listing) == 24
