"""The per-layer metrics: what they are, where they are read, what they move.

Layers are the packages under ``src/repro/``.  :data:`LAYER_METRICS` is
the single list ``BENCHMARK.json``'s ``per_layer`` section mirrors
(``test_ledger.py`` checks the two agree); each entry also names the
end-to-end metric and workload the layer metric is expected to move,
written down before anything was measured.

Seconds come from spans :func:`install` wraps around each layer's public
entry points; counts come from the program's own public counters
(``Machine.tlb_counters()``, ``NUMAStats.as_dict()``,
``topology_counters()``, ``engine.ops_executed``), harvested from every
simulation built while the wrappers were in place.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from trace import Tracer

#: (end-to-end metric, workload) pairs.
Targets = Tuple[Tuple[str, str], ...]

_OPS_REF: Targets = (("work_per_cpu_s", "refstream"),)
_OPS_FAULT: Targets = (("work_per_cpu_s", "faultstorm"),)
_OPS_FAULT_TOPO: Targets = (
    ("work_per_cpu_s", "faultstorm"),
    ("work_per_cpu_s", "topology"),
)
_OPS_OBSERVED: Targets = (("work_per_cpu_s", "observed"),)
_WALL_WARM: Targets = (("wall_s", "matrix_warm"),)
_WALL_COLD: Targets = (("wall_s", "matrix_cold"),)
#: Simulated page-table cost is exact, so it is compared for equality
#: (``run.py --compare``) rather than bounded; it moves no host metric.
_NONE: Targets = ()

PLACEMENTS = ("centralized", "replicated")

#: name, unit, better, targets.
LAYER_METRICS: List[Tuple[str, str, str, Targets]] = [
    ("workloads.build_s", "s", "lower", (("wall_s", "refstream"),)),
    ("workloads.next_op_calls", "count", "lower", _OPS_REF),
    ("workloads.next_op_s", "s", "lower", _OPS_REF),
    ("sim.engine_run_s", "s", "lower", _OPS_REF),
    ("sim.engine_self_s", "s", "lower", _OPS_REF),
    ("sim.ops_executed", "count", "lower", _OPS_REF),
    ("sim.rounds", "count", "lower", _OPS_REF),
    ("sim.reference_batch_s", "s", "lower", _OPS_REF),
    ("sim.policy_tick_s", "s", "lower", _OPS_REF),
    ("sim.collect_result_s", "s", "lower", _OPS_REF),
    ("machine.tlb_lookups", "count", "lower", _OPS_REF),
    ("machine.tlb_hit_ratio", "ratio", "higher", _OPS_REF),
    ("machine.tlb_shootdowns", "count", "lower", _OPS_REF),
    ("machine.tlb_lookup_s", "s", "lower", _OPS_REF),
    ("machine.mmu_translate_calls", "count", "lower", _OPS_FAULT_TOPO),
    ("machine.mmu_translate_s", "s", "lower", _OPS_FAULT_TOPO),
    ("machine.ref_costs_calls", "count", "lower", _OPS_FAULT_TOPO),
    ("machine.ref_costs_s", "s", "lower", _OPS_FAULT_TOPO),
    *(
        (f"machine.{counter}.{placement}", unit, "lower", _NONE)
        for counter, unit in (
            ("pt_walks", "count"),
            ("pt_walk_us", "us"),
            ("pt_update_us", "us"),
            ("pt_replica_shootdowns", "count"),
            ("pt_total_us", "us"),
        )
        for placement in PLACEMENTS
    ),
    ("vm.fault_handle_calls", "count", "lower", _OPS_FAULT),
    ("vm.fault_handle_s", "s", "lower", _OPS_FAULT),
    ("vm.fault_self_s", "s", "lower", _OPS_FAULT),
    ("vm.pmap_enter_calls", "count", "lower", _OPS_FAULT),
    ("vm.pmap_self_s", "s", "lower", _OPS_FAULT),
    ("vm.faults_per_op", "ratio", "lower", _OPS_FAULT),
    ("core.request_calls", "count", "lower", _OPS_FAULT),
    ("core.request_s", "s", "lower", _OPS_FAULT),
    ("core.request_self_s", "s", "lower", _OPS_FAULT),
    ("core.moves", "count", "lower", _OPS_FAULT),
    ("core.copies_to_local", "count", "lower", _OPS_FAULT),
    ("core.syncs", "count", "lower", _OPS_FAULT),
    ("core.policy_calls", "count", "lower", _OPS_FAULT),
    ("core.policy_s", "s", "lower", _OPS_FAULT + _WALL_COLD),
    ("core.invariant_check_s", "s", "lower", _OPS_FAULT),
    ("obs.bus_emits", "count", "lower", _OPS_OBSERVED),
    ("obs.bus_emit_s", "s", "lower", _OPS_OBSERVED),
    ("obs.telemetry_cost_ratio", "ratio", "lower", _OPS_OBSERVED),
    ("check.sanitizer_cost_ratio", "ratio", "lower", _OPS_OBSERVED),
    ("check.races_cost_ratio", "ratio", "lower", _OPS_OBSERVED),
    ("check.observer_callbacks", "count", "lower", _OPS_OBSERVED),
    ("check.observer_s", "s", "lower", _OPS_OBSERVED),
    ("exp.fingerprint_calls", "count", "lower", _WALL_WARM),
    ("exp.fingerprint_s", "s", "lower", _WALL_WARM),
    ("exp.is_declarative_s", "s", "lower", _WALL_WARM),
    ("exp.cache_get_calls", "count", "lower", _WALL_WARM),
    ("exp.cache_get_s", "s", "lower", _WALL_WARM),
    ("exp.cache_hit_ratio", "ratio", "higher", _WALL_WARM),
    ("exp.run_batch_self_s", "s", "lower", _WALL_WARM),
    ("exp.spec_build_s", "s", "lower", _WALL_COLD),
    ("exp.execute_s", "s", "lower", _WALL_COLD),
    ("exp.cache_put_calls", "count", "lower", _WALL_COLD),
    ("exp.cache_put_s", "s", "lower", _WALL_COLD),
    ("exp.cache_bytes", "bytes", "lower", _WALL_COLD),
    ("exp.journal_appends", "count", "lower", _WALL_COLD),
    ("exp.journal_append_s", "s", "lower", _WALL_COLD),
    ("exp.supervise_run_s", "s", "lower", _WALL_COLD),
    ("exp.transport_bytes", "bytes", "lower", _WALL_COLD),
    ("exp.pool_efficiency", "ratio", "higher", _WALL_COLD),
    ("exp.retries", "count", "lower", _WALL_COLD),
    ("exp.quarantined", "count", "lower", _WALL_COLD),
    ("exp.lost", "count", "lower", _WALL_COLD),
    ("analysis.dataset_load_s", "s", "lower", _WALL_WARM),
    ("analysis.report_render_s", "s", "lower", _WALL_WARM),
    ("analysis.report_bytes", "bytes", "lower", _WALL_WARM),
    ("analysis.alpha_max_abs_err", "abs", "lower", _NONE),
    ("analysis.beta_max_abs_err", "abs", "lower", _NONE),
    ("analysis.gamma_max_abs_err", "abs", "lower", _NONE),
    ("cli.import_s", "s", "lower", _WALL_WARM),
    ("cli.commands_spawned", "count", "lower", _WALL_WARM),
    ("cli.overhead_s", "s", "lower", _WALL_WARM),
    ("trace.overhead_ratio", "ratio", "lower", _NONE),
]

#: Policy hooks the NUMA manager and the engine call.
POLICY_HOOKS = (
    "cache_policy",
    "note_move",
    "note_owner",
    "note_page_freed",
    "note_degraded",
    "tick",
)


class Harvest:
    """Sums the public counters of every simulation built under a trace.

    A batch builds dozens of simulations one after another; each is read
    when the next one is built (it has finished by then) and dropped, so
    the traced run holds one machine at a time.
    """

    def __init__(self) -> None:
        self.simulations = 0
        self.ops_executed = 0
        self.rounds = 0
        self.tlb: Dict[str, int] = {}
        self.stats: Dict[str, int] = {}
        #: placement -> summed ``topology_counters()``.
        self.topology: Dict[str, Dict[str, float]] = {}
        self._pending = None

    def add(self, sim) -> None:
        """Take *sim* (just built); read the one before it."""
        self.finish()
        self._pending = sim

    def finish(self) -> None:
        """Read the last simulation taken, if any."""
        sim, self._pending = self._pending, None
        if sim is None:
            return
        self.simulations += 1
        self.ops_executed += sim.engine.ops_executed
        self.rounds += sim.engine.rounds
        for key, value in sim.machine.tlb_counters().items():
            self.tlb[key] = self.tlb.get(key, 0) + value
        for key, value in sim.numa.stats.as_dict().items():
            self.stats[key] = self.stats.get(key, 0) + value
        counters = dict(sim.machine.topology_counters())
        if counters:
            into = self.topology.setdefault(counters.pop("placement"), {})
            for key, value in counters.items():
                into[key] = into.get(key, 0) + value


def install(tracer: Tracer, profiler, harvest: Harvest) -> None:
    """Wrap every layer's public entry points until ``tracer.uninstall()``.

    *profiler* (a ``PhaseProfiler``) is handed to each engine through the
    public ``engine.profiler`` setter, unless telemetry installed its own.
    """
    from repro.check.races import RaceDetector
    from repro.check.sanitizer import ProtocolSanitizer
    from repro.core.directory import DirectoryEntry
    from repro.core.numa_manager import NUMAManager
    from repro.exp.cache import ResultCache
    from repro.exp.journal import BatchJournal
    from repro.exp.spec import RunSpec
    from repro.exp.supervise import SupervisedRunner
    from repro.machine.mmu import MMU
    from repro.machine.timing import TimingModel
    from repro.machine.tlb import SoftwareTLB
    from repro.obs.events import EventBus
    from repro.sim import harness
    from repro.sim.engine import Engine
    from repro.threads.cthreads import CThread
    from repro.vm.fault import FaultHandler
    from repro.vm.pmap import ACEPmap
    from repro.workloads import TABLE_3_WORKLOADS

    for workload in TABLE_3_WORKLOADS.values():
        tracer.wrap(workload, "build", "workloads.build")
    tracer.wrap(CThread, "next_op", "workloads.next_op")
    tracer.wrap(Engine, "run", "sim.engine_run")
    tracer.wrap(harness, "collect_result", "sim.collect_result")
    tracer.wrap(SoftwareTLB, "lookup", "machine.tlb_lookup")
    tracer.wrap(MMU, "translate", "machine.mmu_translate")
    tracer.wrap(TimingModel, "ref_costs", "machine.ref_costs")
    tracer.wrap(FaultHandler, "handle", "vm.fault_handle")
    tracer.wrap(ACEPmap, "pmap_enter", "vm.pmap_enter")
    tracer.wrap(NUMAManager, "request", "core.request")
    tracer.wrap(DirectoryEntry, "check_invariants", "core.invariant_check")
    for attr in vars(EventBus):
        if attr.startswith("emit_"):
            tracer.wrap(EventBus, attr, "obs.bus_emit")
    for observer in (ProtocolSanitizer, RaceDetector):
        for attr in vars(observer):
            if attr.startswith("on_"):
                tracer.wrap(observer, attr, "check.observer")
    tracer.wrap(RunSpec, "fingerprint", "exp.fingerprint")
    tracer.wrap(RunSpec, "is_declarative", "exp.is_declarative")
    tracer.wrap(RunSpec, "execute", "exp.execute")
    tracer.wrap(ResultCache, "get", "exp.cache_get")
    tracer.wrap(ResultCache, "put", "exp.cache_put")
    tracer.wrap(BatchJournal, "append", "exp.journal_append")
    tracer.wrap(SupervisedRunner, "run", "exp.supervise_run")

    spanned_build = tracer.wrapped("exp.spec_build", vars(RunSpec)["build"])

    def build(spec, **overrides):
        sim = spanned_build(spec, **overrides)
        harvest.add(sim)
        if sim.engine.profiler is None:
            sim.engine.profiler = profiler
        for hook in POLICY_HOOKS:
            tracer.wrap(type(sim.numa.policy), hook, "core.policy")
        return sim

    build.__ledger_span__ = "exp.spec_build"  # type: ignore[attr-defined]
    tracer.patch(RunSpec, "build", build)


def read(tracer: Tracer, profiler, harvest: Harvest) -> Dict[str, float]:
    """Every span- and counter-backed layer metric of one traced run.

    Metrics the trace cannot see (cost ratios, pool and CLI numbers,
    model errors, the overhead ratio) start at 0 — "layer not exercised"
    — and are filled in by the workload that measures them.
    """
    harvest.finish()
    values: Dict[str, float] = {name: 0.0 for name, *_ in LAYER_METRICS}

    def calls(span: str) -> int:
        return tracer.stat(span).calls

    def total(span: str) -> float:
        return tracer.stat(span).total_s

    def own(span: str) -> float:
        return tracer.stat(span).self_s

    values["workloads.build_s"] = total("workloads.build")
    values["workloads.next_op_calls"] = calls("workloads.next_op")
    values["workloads.next_op_s"] = total("workloads.next_op")
    values["sim.engine_run_s"] = total("sim.engine_run")
    values["sim.engine_self_s"] = own("sim.engine_run")
    values["sim.ops_executed"] = harvest.ops_executed
    values["sim.rounds"] = harvest.rounds
    values["sim.reference_batch_s"] = profiler.phase("reference_batch").total_s
    values["sim.policy_tick_s"] = profiler.phase("policy_tick").total_s
    values["sim.collect_result_s"] = total("sim.collect_result")

    tlb = harvest.tlb
    lookups = tlb.get("hits", 0) + tlb.get("misses", 0)
    values["machine.tlb_lookups"] = lookups
    values["machine.tlb_hit_ratio"] = (
        tlb.get("hits", 0) / lookups if lookups else 0.0
    )
    values["machine.tlb_shootdowns"] = tlb.get("shootdowns", 0)
    values["machine.tlb_lookup_s"] = total("machine.tlb_lookup")
    values["machine.mmu_translate_calls"] = calls("machine.mmu_translate")
    values["machine.mmu_translate_s"] = total("machine.mmu_translate")
    values["machine.ref_costs_calls"] = calls("machine.ref_costs")
    values["machine.ref_costs_s"] = total("machine.ref_costs")
    for placement, counters in harvest.topology.items():
        walks = counters["pt_walks_socket"] + counters["pt_walks_global"]
        values[f"machine.pt_walks.{placement}"] = walks
        values[f"machine.pt_walk_us.{placement}"] = counters["pt_walk_us"]
        values[f"machine.pt_update_us.{placement}"] = counters["pt_update_us"]
        values[f"machine.pt_replica_shootdowns.{placement}"] = counters[
            "pt_replica_shootdowns"
        ]
        values[f"machine.pt_total_us.{placement}"] = (
            counters["pt_walk_us"] + counters["pt_update_us"]
        )

    stats = harvest.stats
    faults = stats.get("read_faults", 0) + stats.get("write_faults", 0)
    values["vm.fault_handle_calls"] = calls("vm.fault_handle")
    values["vm.fault_handle_s"] = total("vm.fault_handle")
    values["vm.fault_self_s"] = own("vm.fault_handle")
    values["vm.pmap_enter_calls"] = calls("vm.pmap_enter")
    values["vm.pmap_self_s"] = own("vm.pmap_enter")
    values["vm.faults_per_op"] = (
        faults / harvest.ops_executed if harvest.ops_executed else 0.0
    )
    values["core.request_calls"] = calls("core.request")
    values["core.request_s"] = total("core.request")
    values["core.request_self_s"] = own("core.request")
    values["core.moves"] = stats.get("moves", 0)
    values["core.copies_to_local"] = stats.get("copies_to_local", 0)
    values["core.syncs"] = stats.get("syncs", 0)
    values["core.policy_calls"] = calls("core.policy")
    values["core.policy_s"] = total("core.policy")
    values["core.invariant_check_s"] = total("core.invariant_check")
    values["obs.bus_emits"] = calls("obs.bus_emit")
    values["obs.bus_emit_s"] = total("obs.bus_emit")
    values["check.observer_callbacks"] = calls("check.observer")
    values["check.observer_s"] = total("check.observer")

    values["exp.fingerprint_calls"] = calls("exp.fingerprint")
    values["exp.fingerprint_s"] = total("exp.fingerprint")
    values["exp.is_declarative_s"] = total("exp.is_declarative")
    values["exp.cache_get_calls"] = calls("exp.cache_get")
    values["exp.cache_get_s"] = total("exp.cache_get")
    values["exp.run_batch_self_s"] = own("exp.run_batch")
    values["exp.spec_build_s"] = total("exp.spec_build")
    values["exp.execute_s"] = total("exp.execute")
    values["exp.cache_put_calls"] = calls("exp.cache_put")
    values["exp.cache_put_s"] = total("exp.cache_put")
    values["exp.journal_appends"] = calls("exp.journal_append")
    values["exp.journal_append_s"] = total("exp.journal_append")
    values["exp.supervise_run_s"] = total("exp.supervise_run")
    values["analysis.dataset_load_s"] = total("analysis.dataset_load")
    values["analysis.report_render_s"] = total("analysis.report_render")
    return values
