"""Experiment E3 — Table 3: the headline evaluation.

For each of the paper's eight applications, run the three-measurement
methodology (Tnuma / Tglobal / Tlocal on 7 simulated processors), solve
Equations 1-5, and check α, β and γ against the published row.  Bands are
deliberately loose — we claim shape, not digits — but tight enough that a
placement regression (e.g. read-only pages failing to replicate) fails
loudly.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis import model as eqs
from repro.analysis.paper import TABLE_3
from repro.analysis.report import (
    Evaluation,
    EvaluationRow,
    format_measured_alpha,
    format_table3,
)
from repro.sim.harness import PlacementMeasurement, measure_placement
from repro.workloads import TABLE_3_WORKLOADS

from conftest import (
    assert_band,
    maybe_telemetry,
    once,
    save_artifact,
    save_telemetry,
)

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

_rows: Dict[str, EvaluationRow] = {}


def _measure(name: str) -> PlacementMeasurement:
    workload = TABLE_3_WORKLOADS[name]()
    telemetry = maybe_telemetry()
    measurement = measure_placement(
        workload, n_processors=7, check_invariants=False, telemetry=telemetry
    )
    save_telemetry(
        f"table3_{name}", telemetry, {"workload": name, "processors": 7}
    )
    return measurement


@pytest.mark.parametrize("name", list(TABLE_3_WORKLOADS))
def test_table3_row(benchmark, name):
    measurement = once(benchmark, lambda: _measure(name))
    workload_g_over_l = TABLE_3[name].g_over_l
    params = eqs.solve(
        measurement.t_global_s,
        measurement.t_numa_s,
        measurement.t_local_s,
        workload_g_over_l,
    )
    _rows[name] = EvaluationRow(
        application=name,
        measurement=measurement,
        params=params,
        entrant="move-threshold",
    )
    paper = TABLE_3[name]
    alpha_band, beta_band, gamma_band = BANDS[name]
    assert_band(params.alpha, paper.alpha, alpha_band, f"{name} alpha")
    assert_band(params.beta, paper.beta, beta_band, f"{name} beta")
    assert_band(params.gamma, paper.gamma, gamma_band, f"{name} gamma")
    # Orderings the whole paper rests on.
    assert measurement.t_local_s <= measurement.t_numa_s * 1.01
    assert measurement.t_numa_s <= measurement.t_global_s * 1.01


def test_table3_shape_across_applications(benchmark):
    """Cross-application shape: who wins and by how much."""
    assert len(_rows) == len(TABLE_3_WORKLOADS), "row benches must run first"

    def check():
        gamma = {name: row.params.gamma for name, row in _rows.items()}
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
            row = _rows[name]
            m = row.measurement
            saved = m.t_global_s - m.t_numa_s
            possible = m.t_global_s - m.t_local_s
            assert saved > 0.8 * possible, name
        return gamma

    once(benchmark, check)


def test_table3_render(benchmark):
    """Render and persist the reproduced Table 3."""
    assert _rows

    def render() -> str:
        evaluation = Evaluation(
            rows=[_rows[name] for name in TABLE_3_WORKLOADS if name in _rows],
            n_processors=7,
            threshold=4,
        )
        text = format_table3(evaluation)
        text += "\n\n" + format_measured_alpha(evaluation)
        return text

    text = once(benchmark, render)
    path = save_artifact("table3.txt", text)
    print(f"\n{text}\nsaved to {path}")
