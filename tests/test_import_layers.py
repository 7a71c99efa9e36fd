"""The import layers (DESIGN.md §12): what a cache hit loads, and the
package front doors that resolve their names on first use."""

import ast
import json
import os
import pkgutil
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

#: Modules a warm ``batch`` or ``report --from-cache`` has no business
#: loading: the engine, its harness, the chaos harness and everything
#: only a simulation needs.  One legitimate neighbour is *not* here:
#: ``report`` prints ``diagrams.wiring_report()``, which imports
#: ``NUMAManager`` and ``ACEPmap`` to name the modules of Figure 2.
ENGINE_ONLY = (
    "repro.sim.engine",
    "repro.sim.harness",
    "repro.faults.chaos",
    "repro.faults.injector",
    "repro.obs.telemetry",
    "repro.vm.fault",
    "repro.threads.scheduler",
    "repro.check",
)

#: ``repro.*`` modules loaded, ceilings that may only be lowered.  At the
#: commit before this test both figures were 103-104 and the engine was
#: among them; they measure 62 and 74.
MAX_MODULES_IMPORT_CLI = 65
MAX_MODULES_WARM_REPORT = 75

#: Imports ``repro.cli``, runs ``main`` on the arguments after the output
#: path (if any), then writes the ``repro`` modules the process ended up
#: with to that path.
RUN_AND_LIST_MODULES = """
import json, sys
from repro.cli import main
status = main(sys.argv[2:]) if sys.argv[2:] else 0
loaded = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
with open(sys.argv[1], "w") as out:
    json.dump({"status": status, "modules": loaded}, out)
"""


def repro_numa(cwd, *argv):
    """``import repro.cli`` and ``main(argv)`` in a fresh process; its
    ``repro`` modules at exit."""
    listing = cwd / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST_MODULES, str(listing), *argv],
        cwd=cwd, env=env, check=True, capture_output=True,
    )
    report = json.loads(listing.read_text())
    assert report["status"] == 0
    return report["modules"]


def engine_modules(modules):
    return [
        m for m in modules
        if any(m == name or m.startswith(name + ".") for name in ENGINE_ONLY)
    ]


def test_a_cache_hit_imports_no_engine(tmp_path):
    cache = ["--quick", "--cache-dir", "cache"]
    repro_numa(tmp_path, *cache, "batch", "--grid", "table3")
    warm_batch = repro_numa(
        tmp_path, *cache, "batch", "--grid", "table3",
        "--require-cache-ratio", "1.0",
    )
    warm_report = repro_numa(tmp_path, *cache, "report", "--from-cache")
    assert engine_modules(warm_batch) == []
    assert engine_modules(warm_report) == []
    assert len(warm_report) <= MAX_MODULES_WARM_REPORT


def test_import_cli_module_ceiling(tmp_path):
    assert len(repro_numa(tmp_path)) <= MAX_MODULES_IMPORT_CLI


def test_the_race_detector_does_not_load_the_linter():
    """``check/`` has a half that parses source and a half that does
    not: a chaos worker wants the detector and the sanitizer only."""
    listing = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.faults.chaos, repro.check.races\n"
         "print([m for m in sys.modules if m.startswith('repro.check.')])"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True, text=True,
    ).stdout
    assert "repro.check.races" in listing
    assert "repro.check.lint" not in listing
    assert "repro.check.guards" not in listing


# -- package front doors ------------------------------------------------------


def lazy_packages():
    """Every package under ``repro`` whose ``__init__`` uses the helper."""
    packages = [repro] + [
        import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [p.__name__ for p in packages if hasattr(p, "lazy_exports")]


@pytest.mark.parametrize("package", lazy_packages())
def test_every_export_is_its_submodules_object(package):
    module = import_module(package)
    submodules = [
        import_module(info.name)
        for info in pkgutil.walk_packages(module.__path__, package + ".")
    ]
    assert module.__all__ and set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        assert any(vars(sub).get(name) is value for sub in submodules), name
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_name")


def test_front_door_packages():
    # Guards the parametrisation above against going vacuous.
    assert lazy_packages() == [
        "repro", "repro.analysis", "repro.check", "repro.exp",
        "repro.faults", "repro.obs",
    ]


# -- documented imports -------------------------------------------------------


def readme_imports():
    """README's ``from repro… import`` lines, as one script."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return "\n".join(line for line in lines if line.startswith("from repro"))


def example_imports(path):
    """The top-level import statements of one example, and nothing else."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tree.body = [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return tree


@pytest.mark.parametrize(
    "source",
    [pytest.param(readme_imports(), id="README.md")]
    + [
        pytest.param(example_imports(path), id=path.name)
        for path in sorted((ROOT / "examples").glob("*.py"))
    ],
)
def test_documented_imports_resolve(source):
    assert source if isinstance(source, str) else source.body
    exec(compile(source, "<documented imports>", "exec"), {})
