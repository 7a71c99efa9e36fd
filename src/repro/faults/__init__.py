"""Deterministic fault injection and the chaos harness.

The subsystem splits cleanly in three:

* :mod:`repro.faults.plan` — *what* goes wrong and *when*: named
  :class:`~repro.faults.plan.FaultProfile` rate tables and the seeded,
  simulated-time :class:`~repro.faults.plan.FaultPlan` schedule;
* :mod:`repro.faults.injector` — *firing* the plan against one run and
  booking recoveries: the :class:`~repro.faults.injector.FaultInjector`
  the NUMA manager, pmap and engine consult, plus the
  :class:`~repro.faults.injector.RetryPolicy` envelope and the
  :class:`~repro.faults.injector.FaultStats` ledger;
* :mod:`repro.faults.chaos` — running a whole workload under a profile
  with the sanitizer attached and reporting a deterministic
  :class:`~repro.faults.chaos.ChaosReport`;
* :mod:`repro.faults.harness` — chaos for the *experiment harness*
  itself (worker kills, hangs, cache corruption), which the supervision
  layer in :mod:`repro.exp.supervise` must survive.

Recovery itself lives where the state lives — in
:class:`~repro.core.numa_manager.NUMAManager` — not here; this package
only decides, fires, and counts.
"""

from repro.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaos": ("run_chaos",),
    "harness": (
        "HARNESS_PROFILES",
        "HarnessChaosError",
        "HarnessChaosPlan",
        "HarnessChaosProfile",
        "make_harness_plan",
    ),
    "injector": ("FaultInjector", "FaultStats", "RetryPolicy", "make_injector"),
    "plan": ("PROFILES", "FaultKind", "FaultPlan", "FaultProfile"),
})
