"""Self-tests of the ledger benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Everything runs at ``--smoke`` sizes and finishes in well under 20 s.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
sys.path.insert(0, str(LEDGER))

import child  # noqa: E402  (puts src/ on the path)
import compare  # noqa: E402
import layers  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke_args(workload: str, seed: int = 0) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=seed, smoke=True, budget=0.0, spawned_at=0.0
    )


def run_ledger(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_layer_table_is_what_benchmark_json_declares():
    declared = [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ]
    assert declared == [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_target_names_a_declared_metric_and_workload():
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, _, _, targets in layers.LAYER_METRICS:
        for metric, workload in targets:
            assert metric in metrics, name
            assert workload in workloads.WORKLOADS, name


# -- spans --------------------------------------------------------------------


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(trace, "perf_counter", lambda: float(next(clock)))
    tracer = trace.Tracer()
    with tracer.span("outer"):            # enters at 0
        with tracer.span("inner"):        # 1 .. 4
            with tracer.span("leaf"):     # 2 .. 3
                pass
        with tracer.span("inner"):        # 5 .. 6
            pass
    # outer leaves at 7
    outer, inner, leaf = (tracer.stat(n) for n in ("outer", "inner", "leaf"))
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 7.0, 3.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (2, 4.0, 3.0)
    assert (leaf.calls, leaf.total_s, leaf.self_s) == (1, 1.0, 1.0)
    assert tracer.edges[("outer", "inner")] == [2, 4.0]
    assert tracer.edges[("inner", "leaf")] == [1, 1.0]
    total_self = sum(stat.self_s for stat in tracer.stats.values())
    assert total_self == outer.total_s


def test_a_span_nested_in_its_own_name_is_counted_once(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(trace, "perf_counter", lambda: float(next(clock)))
    tracer = trace.Tracer()
    with tracer.span("policy"):           # 0 .. 3
        with tracer.span("policy"):       # 1 .. 2
            pass
    stat = tracer.stat("policy")
    assert (stat.calls, stat.total_s, stat.self_s) == (2, 3.0, 3.0)


def test_wrap_goes_where_the_method_is_defined_and_comes_off():
    class Base:
        def tick(self):
            return "base"

    class Derived(Base):
        pass

    original = vars(Base)["tick"]
    tracer = trace.Tracer()
    tracer.wrap(Derived, "tick", "policy")
    tracer.wrap(Base, "tick", "policy")   # already wrapped: no second layer
    assert tracer.installed == 1 and "tick" not in vars(Derived)
    assert Derived().tick() == "base" and tracer.stat("policy").calls == 1
    tracer.uninstall()
    assert vars(Base)["tick"] is original and tracer.installed == 0


# -- inputs -------------------------------------------------------------------


def fingerprints(seed: int):
    engine = [
        spec.fingerprint()
        for workload in workloads.ENGINE_WORKLOADS
        for spec in workloads.engine_specs(workload, seed)
    ]
    matrix = [
        spec.fingerprint()
        for grid in workloads.matrix_grids(seed)
        for spec in grid
    ]
    return engine, matrix


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert fingerprints(7) == fingerprints(7)
    engine_a, matrix_a = fingerprints(7)
    engine_b, matrix_b = fingerprints(8)
    assert engine_a != engine_b and matrix_a != matrix_b
    for workload in workloads.ENGINE_WORKLOADS:
        a = {s.fingerprint() for s in workloads.engine_specs(workload, 7)}
        b = {s.fingerprint() for s in workloads.engine_specs(workload, 8)}
        assert a != b, workload


def test_seed_jitter_is_small():
    for seed in range(1, 30):
        size = workloads.Sizer("refstream", seed, smoke=False)(1_000_000)
        assert abs(size - 1_000_000) <= workloads.JITTER * 1_000_000


# -- the traced run cleans up after itself ------------------------------------


def ledger_wrappers():
    """Every attribute of a loaded ``repro`` class or module still wrapped."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        owners = [module] + [
            value for value in vars(module).values() if isinstance(value, type)
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if hasattr(value, "__ledger_span__"):
                    found.append((module_name, owner, attr))
    return found


def test_traced_observed_run_restores_classes_and_lock_observers():
    from repro.threads.spinlock import lock_observers

    assert ledger_wrappers() == [] and lock_observers() == []
    result = child.traced_engine(smoke_args("observed"))
    assert ledger_wrappers() == []
    assert lock_observers() == []
    assert result["failed"] == 0
    values = result["metrics"]
    assert set(values) == {name for name, *_ in layers.LAYER_METRICS}
    assert values["obs.bus_emits"] > 0 and values["check.observer_callbacks"] > 0
    assert values["trace.overhead_ratio"] > 0
    for ratio in ("obs.telemetry_cost_ratio", "check.sanitizer_cost_ratio",
                  "check.races_cost_ratio"):
        assert values[ratio] > 0


def test_wrappers_come_off_when_the_traced_rep_raises(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("rep failed")

    bare = child.engine_rep
    calls = iter([bare, boom])
    monkeypatch.setattr(
        child, "engine_rep", lambda *a, **k: next(calls)(*a, **k)
    )
    try:
        child.traced_engine(smoke_args("refstream"))
    except RuntimeError:
        pass
    else:
        raise AssertionError("the failing rep did not propagate")
    assert ledger_wrappers() == []


def test_observing_does_not_perturb_and_reps_repeat():
    specs = workloads.engine_specs("observed", 3, smoke=True)
    bare = child.engine_rep(specs)
    observed = child.engine_rep(specs, child.ALL_OBSERVERS)
    assert bare["digest"] == observed["digest"]
    assert bare["digest"] == child.engine_rep(specs)["digest"]
    assert bare["work"] > 0 and bare["cpu_s"] > 0


# -- the command line ---------------------------------------------------------


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    for workload in ("refstream", "matrix_warm"):
        result = result_line(
            run_ledger("--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--smoke")
        )
        assert list(result["metrics"]) == [
            m["name"] for m in BENCHMARK["end_to_end"]
        ]
        for metric in BENCHMARK["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    result = result_line(
        run_ledger("--workload", "faultstorm", "--seed", "1", "--seconds", "1",
                   "--trace", "1", "--smoke")
    )
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["vm.faults_per_op"]["value"] > 0.1


def test_nothing_to_measure_is_an_error_not_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("_out", "__pycache__"),
    )
    done = run_ledger("--workload", "refstream", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


# -- compare ------------------------------------------------------------------


def result_file(wall, digest="d", moves=10, seed=0):
    per_layer = {
        m["name"]: {"value": 0.0, "unit": m["unit"]} for m in BENCHMARK["per_layer"]
    }
    per_layer["core.moves"]["value"] = moves
    end_to_end = {
        m["name"]: {"value": 1.0, "unit": m["unit"], "samples": [1.0, 1.0, 1.0]}
        for m in BENCHMARK["end_to_end"]
    }
    end_to_end["wall_s"] = {"value": min(wall), "unit": "s", "samples": list(wall)}
    return {
        "seed": seed,
        "smoke": False,
        "workloads": {
            w["name"]: {
                "end_to_end": end_to_end, "per_layer": per_layer,
                "digest": digest, "traced_digest": digest,
                "attempted": 3, "failed": 0,
            }
            for w in BENCHMARK["workloads"]
        },
    }


def statuses(before, after, metric):
    return {
        status
        for name, _, status, _ in compare.rows(BENCHMARK, before, after)
        if name == metric
    }


def test_compare_tells_ok_regressed_and_unresolved_apart():
    steady = result_file([1.00, 1.01, 0.99, 1.00])
    assert statuses(steady, result_file([1.05, 1.04, 1.06, 1.05]), "wall_s") == {"ok"}
    assert statuses(steady, result_file([1.20, 1.21, 1.19, 1.20]), "wall_s") == {
        "regressed"
    }
    noisy = result_file([0.8, 1.0, 1.2, 1.4])
    assert statuses(steady, noisy, "wall_s") == {"unresolved"}
    # Wide spread, but every sample of B beats every sample of A.
    faster = result_file([0.5, 0.6, 0.7, 0.8])
    assert statuses(steady, faster, "wall_s") == {"ok"}


def test_compare_holds_exact_quantities_to_equality():
    base = result_file([1.0, 1.0, 1.0])
    assert statuses(base, result_file([1.0] * 3, moves=11), "core.moves") == {
        "regressed"
    }
    assert statuses(base, result_file([1.0] * 3, digest="e"), "digest") == {
        "regressed"
    }
    assert statuses(base, result_file([1.0] * 3, seed=1), "exact") == {"unresolved"}
    lines, regressed = compare.compare(BENCHMARK, base, base)
    assert regressed == 0 and all(line.startswith("ok") for line in lines)


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
