"""Ablation A13 — validating the paper's execution-time model itself.

Equations 4-5 recover α and β from three measured times; Equation 2 runs
the other way, predicting Tnuma from Tlocal, α and β.  The simulator
measures α directly (per-reference counting; ``repro-numa alpha`` prints
it beside the model's), so the model closes into a testable loop: feed
the *measured* α and the time-derived β back through Equation 2 and the
prediction must land on the simulated Tnuma.  Where it does, the paper's
model is not just self-consistent arithmetic — it describes the machine.
The prediction table has no command; this bench is its only definition.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis import model as eqs
from repro.analysis.paper import TABLE_3
from repro.workloads import TABLE_3_WORKLOADS

from conftest import repro_numa, save_artifact

#: Relative error tolerance for the forward prediction.  Gfetch's mix is
#: fetch-only (its G/L differs most from the solver's), so it gets a
#: wider band; everything else must close tightly.
TOLERANCES = {name: 0.05 for name in TABLE_3_WORKLOADS}
TOLERANCES["Gfetch"] = 0.12
TOLERANCES["Primes3"] = 0.08


@pytest.fixture(scope="module")
def predictions(evaluation_cache) -> Dict[str, Tuple[float, float]]:
    """(Equation 2's Tnuma, simulated Tnuma) per ``alpha`` row."""
    stdout, records = repro_numa("alpha", "--cache-dir", evaluation_cache)
    save_artifact("alpha.txt", stdout)
    rows = {}
    for row in records:
        g_over_l = TABLE_3[row["application"]].g_over_l
        beta = eqs.solve_beta(row["t_global_s"], row["t_local_s"], g_over_l)
        measured_alpha = row["alpha_measured"]
        if measured_alpha is None:
            measured_alpha = 1.0  # no writable refs: alpha is moot
        predicted = eqs.predict_t_numa(
            row["t_local_s"], min(1.0, measured_alpha), beta, g_over_l
        )
        rows[row["application"]] = (predicted, row["t_numa_s"])
    return rows


@pytest.mark.parametrize("name", list(TABLE_3_WORKLOADS))
def test_equation_2_predicts_tnuma(predictions, name):
    predicted, actual = predictions[name]
    assert predicted == pytest.approx(actual, rel=TOLERANCES[name]), (
        f"{name}: Equation 2 predicts {predicted:.2f}s, simulator "
        f"measured {actual:.2f}s"
    )


def test_model_validation_report(predictions):
    lines = ["Equation 2 forward validation: predicted vs simulated Tnuma"]
    for name, (predicted, actual) in predictions.items():
        error = (predicted - actual) / actual if actual else 0.0
        lines.append(
            f"  {name:10s} predicted {predicted:8.2f}s  "
            f"simulated {actual:8.2f}s  error {error:+6.1%}"
        )
    save_artifact("model_validation.txt", "\n".join(lines))
