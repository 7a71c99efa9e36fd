"""The paper's execution-time model (Section 3.1, Equations 1-5).

The model decomposes NUMA-managed run time as

    Tnuma = Tlocal * ((1 - beta) + beta * (alpha + (1 - alpha) * G/L))   (2)

where α is the fraction of writable-data references that hit local memory
and β is the fraction of run time spent referencing writable data were all
memory local.  Setting α = 0 gives the all-global model (3); solving the
two simultaneously recovers

    alpha = (Tglobal - Tnuma) / (Tglobal - Tlocal)                       (4)
    beta  = ((Tglobal - Tlocal) / Tlocal) * (L / (G - L))                (5)

and the user-time expansion factor is γ = Tnuma / Tlocal (Equation 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim.result import PlacementMeasurement

#: Relative Tglobal-Tlocal difference below which α is meaningless (the
#: application barely references writable data, so the division in
#: Equation 4 is 0/0; the paper reports "na" for ParMult's α).
_NEGLIGIBLE_SPREAD = 1e-3


@dataclass(frozen=True)
class ModelParameters:
    """α, β, γ recovered from the three measured times."""

    alpha: Optional[float]
    beta: float
    gamma: float

    def format_alpha(self) -> str:
        """α as the paper prints it (two digits, or "na")."""
        if self.alpha is None:
            return "na"
        return f"{self.alpha:.2f}"


def gamma(t_numa: float, t_local: float) -> float:
    """Equation 1: the user-time expansion factor γ."""
    if t_local <= 0:
        raise ConfigurationError("Tlocal must be positive")
    return t_numa / t_local


def solve_beta(t_global: float, t_local: float, g_over_l: float) -> float:
    """Equation 5: fraction of time spent on writable-data references."""
    if t_local <= 0:
        raise ConfigurationError("Tlocal must be positive")
    if g_over_l <= 1.0:
        raise ConfigurationError("G/L must exceed 1 on a NUMA machine")
    return ((t_global - t_local) / t_local) * (1.0 / (g_over_l - 1.0))


def solve_alpha(
    t_global: float, t_numa: float, t_local: float
) -> Optional[float]:
    """Equation 4: fraction of writable-data references made local.

    Returns ``None`` when Tglobal ≈ Tlocal — the application spends no
    measurable time on writable data, so α is undefined.
    """
    if t_local <= 0:
        raise ConfigurationError("Tlocal must be positive")
    spread = t_global - t_local
    if spread <= _NEGLIGIBLE_SPREAD * t_local:
        return None
    return (t_global - t_numa) / spread


def solve(
    t_global: float, t_numa: float, t_local: float, g_over_l: float
) -> ModelParameters:
    """Recover all three model parameters from the measured times."""
    return ModelParameters(
        alpha=solve_alpha(t_global, t_numa, t_local),
        beta=solve_beta(t_global, t_local, g_over_l),
        gamma=gamma(t_numa, t_local),
    )


def solve_model(measurement: "PlacementMeasurement") -> ModelParameters:
    """Solve Equations 1-5 for a completed placement measurement."""
    return solve(
        measurement.t_global_s,
        measurement.t_numa_s,
        measurement.t_local_s,
        measurement.g_over_l,
    )


def predict_t_numa(
    t_local: float, alpha: float, beta: float, g_over_l: float
) -> float:
    """Equation 2: forward model, for round-trip validation."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError("alpha must be within [0, 1]")
    if beta < 0.0:
        raise ConfigurationError("beta cannot be negative")
    return t_local * ((1.0 - beta) + beta * (alpha + (1.0 - alpha) * g_over_l))


def predict_t_global(t_local: float, beta: float, g_over_l: float) -> float:
    """Equation 3: the all-global model (Equation 2 with α = 0)."""
    return predict_t_numa(t_local, 0.0, beta, g_over_l)
