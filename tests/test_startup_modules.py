"""Every command is one fresh process, so what the package imports is paid on
every request.  These tests count modules, not time: the heavy introspection
modules of the standard library must stay out of a CLI run."""

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


def imported_modules(args: list[str]) -> set[str]:
    """The modules a fresh ``python -S -X importtime <args>`` imports.

    ``-S`` keeps the site hooks of the machine, which import what they
    like, out of the count; the package needs nothing from site-packages.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(_IMPORT_LINE.findall(proc.stderr))


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
