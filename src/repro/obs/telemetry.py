"""The :class:`Telemetry` facade: one object that wires everything.

``Telemetry()`` bundles a metrics registry, a phase profiler, and (once
attached to a simulation) a per-round sampler and the standard
:class:`MetricsObserver`.  The harness attaches it with one call::

    telemetry = Telemetry()
    result = run_once(workload, policy, telemetry=telemetry)
    write_jsonl(telemetry.to_records(), "out.jsonl")

Everything here observes; nothing charges simulated time, so a run's
Table 3 numbers are identical with and without telemetry attached.
Telemetry listens to faults and round ends only; what the machine
already counts — references per CPU, TLB outcomes — it reads once, in
:meth:`Telemetry.finalize`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.state import AccessKind
from repro.machine.timing import MemoryLocation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import PhaseProfiler
from repro.obs.sampler import DEFAULT_INTERVAL, RoundSample, RoundSampler

#: Simulated fault latency buckets, µs.  ACE page copies cost hundreds
#: of µs, simple mapping faults tens — these bounds split the two modes.
FAULT_LATENCY_BOUNDS = (10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Page move-count buckets.  The paper's default threshold pins after
#: four moves, so the interesting mass sits in 0..4 with a tail for
#: reconsider-style policies that keep moving.
MOVE_COUNT_BOUNDS = (0, 1, 2, 3, 4, 8, 16)


class MetricsObserver:
    """Event-bus observer that feeds the per-fault instruments.

    Counts faults and fills the simulated fault-latency histogram from
    ``on_fault_resolved``.  It has no ``on_reference``: the reference
    totals are pulled from the per-CPU counters by
    :meth:`Telemetry.finalize`, so telemetry alone does not make the
    engine emit per block.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._fault_counters = {
            kind: registry.counter(f"{kind.value}_faults")
            for kind in AccessKind
        }
        self._fault_latency = registry.histogram(
            "fault_latency_us", FAULT_LATENCY_BOUNDS
        )

    def on_fault(
        self, round_index: int, cpu: int, vpage: int, kind: AccessKind
    ) -> None:
        """Count one fault by access kind."""
        del round_index, cpu, vpage
        self._fault_counters[kind].inc()

    def on_fault_resolved(
        self,
        round_index: int,
        cpu: int,
        vpage: int,
        kind: AccessKind,
        system_us: float,
    ) -> None:
        """Record the simulated system time one fault handling charged."""
        del round_index, cpu, vpage, kind
        self._fault_latency.observe(system_us)


class Telemetry:
    """Registry + profiler + sampler, attachable to one simulation."""

    def __init__(
        self,
        sample_interval: int = DEFAULT_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.sampler: Optional[RoundSampler] = None
        self._sample_interval = sample_interval
        self._metrics_observer = MetricsObserver(self.registry)
        self._machine = None
        self._numa = None
        self._finalized = False

    # -- wiring --------------------------------------------------------------

    def attach(self, machine, numa, pool, engine) -> None:
        """Wire this telemetry into a built simulation.

        Subscribes the metrics observer and a fresh round sampler to the
        engine's event bus and installs the profiler; called by
        :func:`repro.sim.harness.build_simulation`.
        """
        self.sampler = RoundSampler(
            machine, numa, pool, interval=self._sample_interval
        )
        engine.bus.subscribe(self._metrics_observer)
        engine.bus.subscribe(self.sampler)
        engine.profiler = self.profiler
        self._machine = machine
        self._numa = numa

    def finalize(self) -> None:
        """Fill the end-of-run instruments (idempotent).

        Gauges and the page move-count histogram only make sense once
        the run is over, and the reference and TLB totals are read from
        the machine here; :func:`repro.sim.harness.run_once` calls this
        after the engine finishes, :meth:`to_records` if nobody has.
        """
        if self._finalized or self._machine is None:
            return
        self._finalized = True
        counter = self.registry.counter
        for cpu in self._machine.cpus:
            # Every user reference the engine charges is in ``all_refs``.
            refs = cpu.all_refs
            reads = sum(refs.fetches.values())
            writes = sum(refs.stores.values())
            counter("reads").inc(reads)
            counter("writes").inc(writes)
            counter("references").inc(reads + writes)
            counter("local_references").inc(
                refs.total_to(MemoryLocation.LOCAL)
            )
            counters = cpu.data_refs
            total = counters.total()
            self.registry.gauge(f"cpu{cpu.id}_local_hit").set(
                counters.total_to(MemoryLocation.LOCAL) / total
                if total
                else None
            )
        tlb = self._machine.tlb_counters()
        for key in ("hits", "misses", "fills", "evictions",
                    "invalidations", "shootdowns", "flushes"):
            self.registry.counter(f"tlb_{key}").inc(tlb[key])
        lookups = tlb["hits"] + tlb["misses"]
        self.registry.gauge("tlb_hit_ratio").set(
            tlb["hits"] / lookups if lookups else None
        )
        policy = self._numa.policy
        move_counts = getattr(policy, "move_counts", None)
        if callable(move_counts):
            histogram = self.registry.histogram(
                "page_move_count", MOVE_COUNT_BOUNDS
            )
            for count in move_counts().values():
                histogram.observe(count)

    # -- output --------------------------------------------------------------

    @property
    def samples(self) -> List[RoundSample]:
        """The per-round time series (empty before attachment)."""
        if self.sampler is None:
            return []
        return self.sampler.samples

    def to_records(
        self, meta: Optional[Dict[str, object]] = None
    ) -> List[Dict[str, object]]:
        """Everything as flat records: meta, samples, metrics, phases."""
        self.finalize()
        records: List[Dict[str, object]] = []
        if meta is not None:
            record: Dict[str, object] = {"t": "meta"}
            record.update(meta)
            records.append(record)
        records.extend(s.as_record() for s in self.samples)
        records.extend(self.registry.as_records())
        records.extend(self.profiler.as_records())
        return records

    def summary(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Human-readable report over :meth:`to_records`."""
        from repro.obs.exporters import human_summary

        return human_summary(self.to_records(meta))
