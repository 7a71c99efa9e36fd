"""repro — a reproduction of Bolosky, Fitzgerald & Scott,
"Simple But Effective Techniques for NUMA Memory Management" (SOSP '89).

The package simulates the IBM ACE multiprocessor workstation and the Mach
VM system's machine-dependent pmap layer, in which the paper implemented
automatic NUMA page placement: local memories managed as a consistent
cache of global memory, with a simple move-counting policy that pins
frequently migrating pages in global memory.

Quick start::

    from repro import measure_placement, solve_model
    from repro.workloads import IMatMult

    m = measure_placement(IMatMult(), n_processors=7)
    params = solve_model(m)          # alpha, beta, gamma (Equations 1-5)
    print(m.t_numa_s, params.alpha, params.beta, params.gamma)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "analysis.model": ("ModelParameters", "solve_model"),
    "analysis.report": ("run_evaluation",),
    "core.numa_manager": ("NUMAManager",),
    "core.policies": (
        "AllGlobalPolicy",
        "AllLocalPolicy",
        "MoveThresholdPolicy",
        "Pragma",
        "PragmaPolicy",
        "ReconsiderPolicy",
    ),
    "core.policy": ("NUMAPolicy",),
    "exp.batch": ("run_batch",),
    "exp.cache": ("ResultCache",),
    "exp.spec": ("RunSpec",),
    "machine.config": ("MachineConfig", "ace_config"),
    "machine.machine": ("Machine",),
    "sim.harness": ("build_simulation", "measure_placement", "run_once"),
    "sim.result": ("PlacementMeasurement", "RunResult"),
    "workloads": ("TABLE_3_WORKLOADS", "Workload"),
})
