"""Self-test of the exact counter (``count.py``), at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/counts -q

Two fresh processes count ``refstream`` side by side, and two more
``faultstorm``: each pair must agree to the unit.  On CPython 3.11, the
recorded series, the counts per op must also stay under each workload's
ceilings (the ones the lean dispatch arm and the one-pricing slow arm
were sized to); other versions count differently and are not gated.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

COUNT = Path(__file__).resolve().parent / "count.py"

#: Seed 0, CPython 3.11: per-op ceilings by workload.  Only lowered.
#: ``faultstorm``'s are its reading once a TLB miss became ``translate``'s
#: ``None`` and each half of a block was priced once (1 282.8 and 43.90).
CEILINGS = {
    "refstream": {"bytecodes": 130.0, "py_calls": 1.55},
    "faultstorm": {"bytecodes": 1282.9, "py_calls": 43.9},
}

#: Files whose per-op bytecodes the lean arm inlined away: what is left
#: is the general loop's one round per policy tick and the slow arm.
INLINED = {"repro/threads/cthreads.py": 1.0, "repro/machine/tlb.py": 1.0}


def counted_twice(workload: str) -> dict:
    """Count *workload* in two fresh processes side by side; they must
    agree to the unit.  Returns the count, ceilings checked on 3.11."""
    runs = [
        subprocess.Popen(
            [sys.executable, str(COUNT), workload, "--json"],
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(output) for output in outputs)
    assert first == second
    if sys.version_info[:2] == (3, 11):
        ceilings = CEILINGS[workload]
        per_op = {kind: first["totals"][kind] / first["ops"] for kind in ceilings}
        assert all(per_op[kind] <= ceilings[kind] for kind in ceilings), per_op
    return first


def test_refstream_counts_repeat_and_stay_under_the_ceilings():
    counts = counted_twice("refstream")
    if sys.version_info[:2] != (3, 11):
        return
    for name, ceiling in INLINED.items():
        assert counts["layers"][name]["bytecodes"] / counts["ops"] <= ceiling


def test_faultstorm_counts_repeat_and_stay_under_the_ceilings():
    counted_twice("faultstorm")
