"""Batch-orchestrator bench — fan-out and the cache must change nothing.

What ``--jobs`` and a warm cache buy in wall-clock is the performance
ledger's number (``wall_s`` on ``matrix_cold``/``matrix_warm`` and
``exp.pool_efficiency``, ``benchmarks/ledger/``).  This bench pins what
the orchestrator must not change while buying it:

* **Fidelity**: the full-scale Tables 3–4 grid (8 applications ×
  {Tnuma, Tglobal, Tlocal}) executed with ``jobs=4`` worker processes
  must be byte-identical (canonical JSON), outcome for outcome, to the
  serial run.
* **Resumability**: re-running the quick grid against a warmed result
  cache must simulate nothing (``executed == 0``) and be faster than
  computing.
"""

from __future__ import annotations

from repro.exp.batch import run_batch
from repro.exp.cache import ResultCache
from repro.exp.grid import flatten, table3_grid

from conftest import once

JOBS = 4


def test_parallel_fidelity(benchmark):
    specs = flatten(table3_grid())

    def experiment():
        serial = run_batch(specs, jobs=1)
        parallel = run_batch(specs, jobs=JOBS)
        return serial, parallel

    serial, parallel = once(benchmark, experiment)

    # A parallel runner that changes the answer is a bug, not a speedup.
    assert len(serial.rows) == len(parallel.rows) == len(specs)
    for left, right in zip(serial.rows, parallel.rows):
        assert left.outcome.to_json() == right.outcome.to_json(), (
            f"parallel outcome diverged for {left.spec.label}"
        )


def test_warm_cache_simulates_nothing(tmp_path):
    specs = flatten(table3_grid(quick=True))
    cache = ResultCache(tmp_path / "cache")
    cold = run_batch(specs, cache=cache)
    warm = run_batch(specs, cache=cache)
    assert cold.executed == len(specs)
    assert warm.executed == 0
    assert warm.cache_hits == len(specs)
    for a, b in zip(cold.rows, warm.rows):
        assert a.outcome.to_json() == b.outcome.to_json()
    # Serving from disk must be much cheaper than simulating (the cold
    # quick grid takes ~0.4s; reading 24 JSON files takes milliseconds).
    assert warm.wall_s < cold.wall_s
