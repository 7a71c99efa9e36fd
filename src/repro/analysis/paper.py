"""Published numbers from the paper, for side-by-side reporting.

Values are transcribed from Tables 1 to 4 and Section 2.2 of Bolosky,
Fitzgerald & Scott (SOSP '89).  Reports print Tables 3 and 4 next to
the simulator's measurements (EXPERIMENTS.md records the comparison);
``repro-numa modelcheck`` holds the live protocol tables to Tables 1
and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Tables 1-2: each cell's three printed lines (cleanup, copy, new
#: state), keyed by the row and column headings the paper prints.
ProtocolTable = Dict[Tuple[str, str], Tuple[str, str, str]]

#: Table 1, "NUMA Manager Actions for Read Requests", cell by cell as
#: printed.  This is the one transcription of Tables 1-2 outside
#: ``core/transitions.py`` and it imports nothing from ``core/``: an
#: error in the live encoding must show up as a mismatch against it.
TABLE_1: ProtocolTable = {
    ("LOCAL", "Read-Only"):
        ("no action", "copy to local", "read-only"),
    ("LOCAL", "Global-Writable"):
        ("unmap all", "copy to local", "read-only"),
    ("LOCAL", "Local-Writable on own node"):
        ("no action", "-", "local-writable"),
    ("LOCAL", "Local-Writable on other node"):
        ("sync&flush other", "copy to local", "read-only"),
    ("GLOBAL", "Read-Only"):
        ("flush all", "-", "global-writable"),
    ("GLOBAL", "Global-Writable"):
        ("no action", "-", "global-writable"),
    ("GLOBAL", "Local-Writable on own node"):
        ("sync&flush own", "-", "global-writable"),
    ("GLOBAL", "Local-Writable on other node"):
        ("sync&flush other", "-", "global-writable"),
}

#: Table 2, "NUMA Manager Actions for Write Requests", same shape.
TABLE_2: ProtocolTable = {
    ("LOCAL", "Read-Only"):
        ("flush other", "copy to local", "local-writable"),
    ("LOCAL", "Global-Writable"):
        ("unmap all", "copy to local", "local-writable"),
    ("LOCAL", "Local-Writable on own node"):
        ("no action", "-", "local-writable"),
    ("LOCAL", "Local-Writable on other node"):
        ("sync&flush other", "copy to local", "local-writable"),
    ("GLOBAL", "Read-Only"):
        ("flush all", "-", "global-writable"),
    ("GLOBAL", "Global-Writable"):
        ("no action", "-", "global-writable"),
    ("GLOBAL", "Local-Writable on own node"):
        ("sync&flush own", "-", "global-writable"),
    ("GLOBAL", "Local-Writable on other node"):
        ("sync&flush other", "-", "global-writable"),
}


@dataclass(frozen=True)
class Table3Row:
    """One application's row in the paper's Table 3 (times in seconds)."""

    application: str
    t_global: float
    t_numa: float
    t_local: float
    alpha: Optional[float]  # None where the paper prints "na"
    beta: float
    gamma: float
    #: G/L used for the model (footnote 3: 2.3 for all-fetch programs).
    g_over_l: float = 2.0


#: Table 3: measured user times and computed model parameters.
TABLE_3: Dict[str, Table3Row] = {
    row.application: row
    for row in (
        Table3Row("ParMult", 67.4, 67.4, 67.3, None, 0.00, 1.00),
        Table3Row("Gfetch", 60.2, 60.2, 26.5, 0.0, 1.0, 2.27, g_over_l=2.3),
        Table3Row("IMatMult", 82.1, 69.0, 68.2, 0.94, 0.26, 1.01, g_over_l=2.3),
        Table3Row("Primes1", 18502.2, 17413.9, 17413.3, 1.0, 0.06, 1.00),
        Table3Row("Primes2", 5754.3, 4972.9, 4968.9, 0.99, 0.16, 1.00),
        Table3Row("Primes3", 39.1, 37.4, 28.8, 0.17, 0.36, 1.30),
        Table3Row("FFT", 687.4, 449.0, 438.4, 0.96, 0.56, 1.02),
        Table3Row("PlyTrace", 56.9, 38.8, 38.0, 0.96, 0.50, 1.02),
    )
}


@dataclass(frozen=True)
class Table4Row:
    """One application's row in Table 4 (7-processor system times, s)."""

    application: str
    s_numa: float
    s_global: float
    delta_s: Optional[float]  # None where the paper prints "na"
    t_numa: float
    delta_over_t: float  # ΔS / Tnuma, as a fraction


#: Table 4: system-time overhead of NUMA management on 7 processors.
TABLE_4: Dict[str, Table4Row] = {
    row.application: row
    for row in (
        Table4Row("IMatMult", 4.5, 1.2, 3.3, 82.1, 0.040),
        Table4Row("Primes1", 1.4, 2.3, None, 17413.9, 0.0),
        Table4Row("Primes2", 29.9, 8.5, 21.4, 4972.9, 0.004),
        Table4Row("Primes3", 11.2, 1.9, 9.3, 37.4, 0.249),
        Table4Row("FFT", 21.1, 10.0, 11.1, 449.0, 0.025),
    )
}

#: Section 2.2: measured 32-bit reference times on the ACE, microseconds.
ACE_LATENCIES = {
    "local_fetch_us": 0.65,
    "local_store_us": 0.84,
    "global_fetch_us": 1.5,
    "global_store_us": 1.4,
}

#: Section 2.2: quoted G/L ratios.
ACE_RATIOS = {
    "fetch": 2.3,
    "store": 1.7,
    "mix_45pct_stores": 2.0,
}

#: Section 4.2: Primes2's α before and after privatizing the divisors.
PRIMES2_FALSE_SHARING_ALPHA = {"shared_divisors": 0.66, "private_divisors": 1.00}

#: Section 2.3.2: default move threshold (boot-time parameter).
DEFAULT_THRESHOLD = 4

#: Applications that appear in Table 4 (the others' system time is not
#: reported by the paper).
TABLE_4_APPLICATIONS = tuple(TABLE_4)

#: All eight Table 3 applications, in the paper's row order.
TABLE_3_APPLICATIONS = tuple(TABLE_3)
