"""Self-test of the exact counter (``count.py``), at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/counts -q

Two fresh processes count ``refstream`` side by side: they must agree to
the unit.  On CPython 3.11, the recorded series, the counts per op must
also stay under the ceilings the lean dispatch arm was sized to before
it was written; other versions count differently and are not gated.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

COUNT = Path(__file__).resolve().parent / "count.py"

#: ``refstream``, seed 0, CPython 3.11: per-op ceilings.  Only lowered.
CEILINGS = {"bytecodes": 130.0, "py_calls": 1.55}

#: Files whose per-op bytecodes the lean arm inlined away: what is left
#: is the general loop's one round per policy tick and the slow arm.
INLINED = {"repro/threads/cthreads.py": 1.0, "repro/machine/tlb.py": 1.0}


def test_refstream_counts_repeat_and_stay_under_the_ceilings():
    runs = [
        subprocess.Popen(
            [sys.executable, str(COUNT), "refstream", "--json"],
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(output) for output in outputs)
    assert first == second
    if sys.version_info[:2] != (3, 11):
        return
    ops = first["ops"]
    per_op = {kind: first["totals"][kind] / ops for kind in CEILINGS}
    assert all(per_op[kind] <= ceiling for kind, ceiling in CEILINGS.items()), per_op
    for name, ceiling in INLINED.items():
        assert first["layers"][name]["bytecodes"] / ops <= ceiling
