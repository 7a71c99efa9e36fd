"""Telemetry: event bus, metrics, per-round sampling, and profiling.

The paper's evaluation is built entirely from counters (Table 4) and
derived quantities (α, bus utilization); this package turns those
end-of-run totals into inspectable time series and run profiles:

* :mod:`repro.obs.events` — the fan-out :class:`EventBus` the engine
  publishes to, replacing the old single ``observer`` slot;
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms;
* :mod:`repro.obs.sampler` — per-scheduling-round snapshots of
  :class:`~repro.core.stats.NUMAStats` deltas and pool/directory
  occupancy;
* :mod:`repro.obs.profiling` — wall-clock spans around engine phases;
* :mod:`repro.obs.exporters` — JSONL/CSV/human-summary output;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade that wires
  all of the above into a simulation in one call.
"""

from repro.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": ("EventBus",),
    "exporters": ("JsonSink", "human_summary", "write_csv", "write_jsonl"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "profiling": ("PhaseProfiler", "PhaseStat"),
    "sampler": ("RoundSample", "RoundSampler"),
    "telemetry": ("MetricsObserver", "Telemetry"),
})
