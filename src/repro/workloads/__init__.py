"""The paper's application mix, as deterministic reference generators.

Each module reproduces one Section 3.2 application: its memory layout
(what is private, what is shared, what is read-mostly), its reference mix
(calibrated to the paper's β), and its sharing behaviour (which drives
α and γ through the protocol, not through calibration).
"""

from typing import Callable, Dict

from repro.registry import Registry
from repro.workloads.base import BuildContext, ThreadBody, Workload
from repro.workloads.fft import FFT
from repro.workloads.gfetch import Gfetch
from repro.workloads.handoff import Handoff
from repro.workloads.imatmult import IMatMult
from repro.workloads.layout import (
    FractionalRefs,
    LayoutBuilder,
    WordRange,
    sweep_refs,
)
from repro.workloads.lopsided import LopsidedSharing
from repro.workloads.parmult import ParMult
from repro.workloads.plytrace import PlyTrace
from repro.workloads.primes import Primes1, Primes2, Primes3, primes_below

#: The eight Table 3 applications, in the paper's row order, at the
#: default (paper-shaped) problem sizes.
TABLE_3_WORKLOADS: Registry[Callable[[], Workload]] = Registry("workload", {
    "ParMult": ParMult,
    "Gfetch": Gfetch,
    "IMatMult": IMatMult,
    "Primes1": Primes1,
    "Primes2": Primes2,
    "Primes3": Primes3,
    "FFT": FFT,
    "PlyTrace": PlyTrace,
})

#: The Table 4 subset (the paper reports system time for these five).
TABLE_4_WORKLOADS = ("IMatMult", "Primes1", "Primes2", "Primes3", "FFT")


def small_workloads() -> Dict[str, Workload]:
    """Fast-test instances of every application (for the test suite)."""
    return {
        name: factory.small()  # type: ignore[attr-defined]
        for name, factory in TABLE_3_WORKLOADS.items()
    }


__all__ = [
    "BuildContext",
    "ThreadBody",
    "Workload",
    "FFT",
    "Gfetch",
    "Handoff",
    "IMatMult",
    "LopsidedSharing",
    "FractionalRefs",
    "LayoutBuilder",
    "WordRange",
    "sweep_refs",
    "ParMult",
    "PlyTrace",
    "Primes1",
    "Primes2",
    "Primes3",
    "primes_below",
    "TABLE_3_WORKLOADS",
    "TABLE_4_WORKLOADS",
    "small_workloads",
]
