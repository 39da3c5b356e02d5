"""Every command is one fresh process, so what the package imports is paid on
every request.  These tests count modules, not time: the heavy introspection
modules of the standard library must stay out of a CLI run, and a command
runs only the conekit modules it uses."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses imports inspect, which imports ast, dis and tokenize
FORBIDDEN = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# the JSON writer needs only the C escaper in _json; the json package would
# bring its decoder and scanner and compile their regexes
JSON_PACKAGE = {"json", "json.decoder", "json.scanner"}

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", re.MULTILINE)


def _stderr(args: list[str]) -> str:
    """The stderr of a fresh ``python -S <args>``, which must exit 0.

    ``-S`` keeps the site hooks of the machine, which import what they
    like, out of the count; the package needs nothing from site-packages.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stderr


def imported_modules(args: list[str]) -> set[str]:
    """The modules a fresh ``python -S -X importtime <args>`` imports."""
    return set(_IMPORT_LINE.findall(_stderr(["-X", "importtime", *args])))


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import conekit.cli"],
        ["-m", "conekit.cli", "verify", "plt", "--d", "5", "--q", "3"],
        ["-m", "conekit.cli", "kvv-schedule", "--e", "2,3", "--target", "5"],
    ],
    ids=["import", "verify-plt", "kvv-schedule"],
)
def test_cli_run_loads_no_introspection_module(args):
    modules = imported_modules(args)
    assert "conekit" in modules
    assert modules & FORBIDDEN == set()
    assert modules & JSON_PACKAGE == set()


# Run as ``python -m conekit.cli`` runs it: cli executes as a script, not as
# the module conekit.cli, and ``run``'s os._exit is skipped, so that the
# process can list, on stderr, the conekit modules it has executed.  A module
# that cli or cone3fold holds through ``conekit._lazy`` is registered in
# sys.modules from the start, as a ``LazyLoader`` module that becomes a plain
# ``types.ModuleType`` when its first attribute read runs it.  ``-X
# importtime`` cannot tell them apart: it lists only what the import system
# loads, and a lazy module is run by its first read, not by an import.
_EXECUTED = (
    "import runpy, sys, types\n"
    "main = runpy.run_module('conekit.cli')['main']\n"
    "code = main(sys.argv[1:])\n"
    "ran = [n for n, m in sys.modules.items()"
    " if n.startswith('conekit') and type(m) is types.ModuleType]\n"
    "sys.stderr.write(' '.join(sorted(ran)))\n"
    "sys.exit(code)\n"
)
ENGINE = {"cohom", "contract", "km_surface", "qlattice", "scenarios"}


def executed_modules(argv: list[str]) -> set[str]:
    """The conekit modules (the package's as "") that a fresh CLI run of
    ``argv`` has executed by the time it exits."""
    return {name.partition(".")[2] for name in _stderr(["-c", _EXECUTED, *argv]).split()}


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["kvv-schedule", "--e", "2,3", "--target", "5"], set()),
        (["kvv-schedule", "--e", "2,3", "--target", "5", "--format", "md"], set()),
        (["verify", "plt", "--d", "5", "--q", "3"], ENGINE),
        (["verify", "fano", "--q", "3"], ENGINE),
        (["sweep", "--d-min", "5", "--d-max", "6"], ENGINE),
        (["cone", "--d", "5", "--q", "3"], ENGINE - {"scenarios"}),
        (["km-surface", "--d", "5"], {"km_surface", "qlattice"}),
    ],
    ids=["kvv-schedule", "kvv-schedule-md", "verify-plt", "verify-fano", "sweep", "cone",
         "km-surface"],
)
def test_a_command_runs_only_the_modules_it_uses(argv, engine):
    # the writer and the schedule live in cli and cone3fold, which every run
    # executes; the engine modules run only when a command reads them
    assert executed_modules(argv) == {"", "cone3fold"} | engine


@pytest.mark.parametrize("path", sorted((SRC / "conekit").glob("*.py")), ids=lambda p: p.name)
def test_source_imports_no_introspection_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    # typing too: collections.abc has the same abstract classes, and faster
    # isinstance checks against them
    assert imported & (FORBIDDEN | {"typing"}) == set()
