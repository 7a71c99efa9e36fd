"""Every ``--help`` text, stdout line and ``--json`` record, pinned.

Each case calls :func:`repro.cli.main` in-process and compares what the
command printed (and, where it has one, the ``--json`` file it wrote)
with ``tests/golden/cli/<case>.txt`` byte for byte (floats to 12
digits off the interpreter that wrote them).  Host-time fields —
``phase`` records, the profile block ``metrics`` prints and ``wall_s`` —
are masked before the comparison; everything else is simulated, hence
deterministic.  The simulating commands run at ``--quick``; the cache
commands run against a fresh cache in a temporary directory.

Regenerate the goldens after a change that is *meant* to move output::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import sys
import tempfile
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cli import COMMANDS, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli"

SUBCOMMANDS = (
    "table3", "table4", "tables12", "figures", "latency", "alpha",
    "sweep", "false-sharing", "optimal", "advise", "bus", "speedup",
    "metrics", "chaos", "topologies", "policies", "mix", "batch", "cache",
    "lint", "modelcheck", "races", "report", "all",
)

#: (case name, argv); every case also writes ``--json``.
OUTPUT_CASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("tables12", ("tables12",)),
    ("figures", ("figures",)),
    ("latency", ("latency",)),
    ("topologies", ("topologies",)),
    ("policies", ("policies",)),
    ("policies-json", ("policies", "--format", "json")),
    ("bus", ("--quick", "bus")),
    ("mix", ("--quick", "mix")),
    ("advise", ("--quick", "advise")),
    ("speedup", ("--quick", "speedup")),
    ("false-sharing", ("--quick", "false-sharing")),
    ("optimal", ("--quick", "optimal")),
    ("metrics", ("--quick", "metrics", "parmult")),
    ("chaos", ("--quick", "chaos", "parmult")),
    ("sweep", ("--quick", "sweep")),
    ("table3", ("--quick", "table3")),
    ("modelcheck", ("--quick", "modelcheck", "--format", "json")),
    ("races-static", ("--quick", "races", "--static", "--format", "json")),
)

#: Run in order against one cache directory.
CACHE_CASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("batch", ("--quick", "batch", "--apps", "ParMult")),
    ("cache-ls", ("--quick", "cache", "ls")),
    ("cache-stats", ("--quick", "cache", "stats")),
    ("cache-gc", ("--quick", "cache", "gc")),
    ("report-missing", ("--quick", "report", "--missing")),
)

#: The interpreter the goldens were written with, compared byte for
#: byte.  Python 3.12 made ``sum()`` over floats compensated, so under
#: other versions a float may differ in its last bits: those compare
#: every float at 12 significant digits.
RECORDED_ON = (3, 11)

_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")
_HOST_KEYS = re.compile(r'("(?:wall_s|total_s|mean_s|max_s)": )[-+0-9.e]+')
_BATCH_WALL = re.compile(r'("name": "batch_wall_s", "value": )[-+0-9.e]+')
_DURATION = re.compile(r" *\d+(?:\.\d+)?(?:ms|µs|s)\b")


def _mask(text: str) -> str:
    """Replace the host-time fields of *text* with ``<host>``."""
    text = _HOST_KEYS.sub(r'\1"<host>"', text)
    text = _BATCH_WALL.sub(r'\1"<host>"', text)
    lines, in_profile = [], False
    for line in text.split("\n"):
        if line.startswith("phase profile (wall-clock):"):
            in_profile = True
        elif in_profile and not line.startswith("  "):
            in_profile = False
        if in_profile:
            line = _DURATION.sub(" <host>", line)
        lines.append(line)
    return "\n".join(lines)


def _comparable(text: str) -> str:
    if sys.version_info[:2] == RECORDED_ON:
        return text
    return _FLOAT.sub(lambda m: format(float(m.group()), ".12g"), text)


def _invoke(argv: List[str]) -> Tuple[int, str]:
    """Exit status and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exit_:
            status = exit_.code
    return status, out.getvalue()


def _render(argv: Tuple[str, ...], json_path: pathlib.Path) -> str:
    """One case as its golden text: argv, exit status, stdout, records."""
    status, stdout = _invoke([*argv, "--json", str(json_path)])
    records = json_path.read_text(encoding="utf-8")
    return _mask(
        f"$ repro-numa {' '.join(argv)}\nexit {status}\n{stdout}"
        f"--- json ---\n{records}"
    )


def _render_help(command: str) -> str:
    """Exit status and help text, the usage paragraph on one line.

    Where argparse breaks a long usage line differs between Python
    versions (3.13 keeps ``...`` on the choices line); the words do not.
    """
    status, stdout = _invoke([command, "--help"] if command else ["--help"])
    usage, _, rest = stdout.partition("\n\n")
    return f"exit {status}\n{' '.join(usage.split())}\n\n{rest}"


def _help_name(command: str) -> str:
    return f"help-{command or 'root'}"


def _render_all(workdir: pathlib.Path) -> Dict[str, str]:
    """Every golden case, keyed by file stem (cwd must be *workdir*)."""
    rendered = {
        _help_name(command): _render_help(command)
        for command in ("",) + SUBCOMMANDS
    }
    for name, argv in OUTPUT_CASES:
        rendered[name] = _render(argv, workdir / f"{name}.jsonl")
    for name, argv in CACHE_CASES:
        rendered[name] = _render(
            (*argv, "--cache-dir", "cache"), workdir / f"{name}.jsonl"
        )
    return rendered


@contextlib.contextmanager
def _golden_conditions() -> Iterator[pathlib.Path]:
    """80 columns, no sanitizer, cwd a fresh temporary directory."""
    patch = pytest.MonkeyPatch()
    patch.setenv("COLUMNS", "80")
    patch.delenv("REPRO_SANITIZE", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        patch.chdir(tmp)
        try:
            yield pathlib.Path(tmp)
        finally:
            patch.undo()


@pytest.fixture(scope="module")
def rendered() -> Iterator[Dict[str, str]]:
    with _golden_conditions() as workdir:
        yield _render_all(workdir)


def test_subcommand_list_is_the_command_table():
    assert tuple(command.name for command in COMMANDS) == SUBCOMMANDS


def test_every_golden_is_a_case(rendered):
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(rendered)


@pytest.mark.parametrize(
    "name",
    [_help_name(c) for c in ("",) + SUBCOMMANDS]
    + [name for name, _ in OUTPUT_CASES + CACHE_CASES],
)
def test_output_is_the_golden(rendered, name):
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _comparable(rendered[name]) == _comparable(golden)


def _regenerate() -> None:
    with _golden_conditions() as workdir:
        rendered = _render_all(workdir)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, text in rendered.items():
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
    print(f"wrote {len(rendered)} goldens to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
