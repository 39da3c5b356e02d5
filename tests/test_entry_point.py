"""The process entry point, ``cli.run``, through a real ``python -m
conekit.cli`` process: the bytes it prints and the exit codes it returns
equal ``main``'s in-process ones, and it skips the interpreter's teardown
only once ``main`` has returned.  Whether the teardown ran is read from an
``atexit`` hook, a count rather than a clock."""

import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conekit import cli, cohom, scenarios
from conekit.cli import main
from test_cli import GOLDEN_CASES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
HOOK_LINE = "atexit hook ran\n"

# A fresh process that applies ``setup``, registers an atexit hook and runs
# the module as ``python -m conekit.cli <argv>`` does.
HARNESS = """\
import atexit, runpy, sys
{setup}
atexit.register(lambda: sys.stderr.write({hook!r}))
sys.argv = ["conekit", *{argv!r}]
runpy.run_module("conekit.cli", run_name="__main__")
"""

GOLDEN_ARGV = dict(GOLDEN_CASES)
VERIFY_PLT = GOLDEN_ARGV["verify_plt_53"]


def python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh ``python <args>`` that imports conekit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, cwd=ROOT, timeout=120
    )


def harness(argv: list[str], setup: str = "") -> subprocess.CompletedProcess:
    return python(["-c", HARNESS.format(setup=setup, hook=HOOK_LINE, argv=argv)])


def in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize(
    "name", ["verify_plt_53", "cone_curve_md", "cohom_subtract_csv"], ids=["json", "md", "csv"]
)
def test_entry_point_prints_the_golden_bytes(name):
    proc = python(["-m", "conekit.cli", *GOLDEN_ARGV[name]])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN_DIR / f"{name}.txt").read_bytes()


def test_two_megabyte_schedule_through_a_pipe_equals_main():
    argv = ["kvv-schedule", "--e", "7,1,5,12", "--delta", "3/4,0,0,3/4", "--target", "480"]
    code, out, err = in_process(argv)
    assert (code, err) == (0, b"")
    assert len(out) > 2_000_000
    proc = python(["-m", "conekit.cli", *argv])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == out


@pytest.mark.parametrize(
    "module, name, patch, argv, code",
    [
        (scenarios, "plt_coefficient_b",
         "lambda real: lambda model, i: {**real(model, i), 'plt': False}", VERIFY_PLT, 1),
        (cohom, "_family_shift", "lambda real: lambda fam: real(fam) + 1",
         ["cohom", "--d", "5", "--q1", "3", "--q2", "2"], 3),
    ],
    ids=["exit-1-verdict-false", "exit-3-internal-check"],
)
def test_failing_exit_through_the_entry_point_equals_main(
    monkeypatch, module, name, patch, argv, code
):
    # one fault, injected in-process and in the harness by the same source
    monkeypatch.setattr(module, name, eval(patch)(getattr(module, name)))
    expected = in_process(argv)
    assert expected[0] == code
    if code == 3:
        assert expected[1] == b""
        assert expected[2].startswith(b"error: internal check failed: ")
    else:
        assert b'"verdict": false' in expected[1]
    short = module.__name__.rpartition(".")[2]
    setup = f"from conekit import {short}\n{short}.{name} = ({patch})({short}.{name})"
    proc = harness(argv, setup)
    # the hook never ran: stderr holds main's line and nothing after it
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize(
    "argv, setup, code, stderr",
    [
        # main returned: the process ends at once
        (VERIFY_PLT, "", 0, ""),
        (["verify", "plt", "--d", "2", "--q", "3"], "", 2, "error: d>=q+2: (d, q) = (2, 3)\n"),
        # argparse's SystemExit: Python's normal exit
        (["verify", "plt", "--d", "5"], "", 2, None),
        # a profiler or tracer writes its report after the program returns
        (VERIFY_PLT, "sys.setprofile(lambda *args: None)", 0, HOOK_LINE),
        (VERIFY_PLT, "sys.settrace(lambda *args: None)", 0, HOOK_LINE),
        # a stdout that cannot be flushed: Python's normal exit
        (["verify", "plt", "--d", "2", "--q", "3"], "sys.stdout = None", 2,
         "error: d>=q+2: (d, q) = (2, 3)\n" + HOOK_LINE),
    ],
    ids=["success", "usage-error-in-main", "argparse-usage-error", "profiled", "traced",
         "stdout-closed"],
)
def test_teardown_is_skipped_only_after_main_returns_and_flushes(argv, setup, code, stderr):
    proc = harness(argv, setup)
    assert proc.returncode == code
    if stderr is None:
        err = proc.stderr.decode()
        assert "error: the following arguments are required: --q" in err
        assert err.endswith(HOOK_LINE)
    else:
        assert proc.stderr.decode() == stderr
    if code == 0:
        assert proc.stdout == (GOLDEN_DIR / "verify_plt_53.txt").read_bytes()


def test_a_flush_that_fails_in_run_leaves_the_exit_to_python():
    # main's line, the hook, then Python's own report of the stdout it cannot
    # flush and its exit code for that, 120, as without run
    stuck = (
        "import io\n"
        "class Stuck(io.StringIO):\n"
        "    def flush(self):\n"
        "        raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
        "sys.stdout = Stuck()\n"
    )
    proc = harness(VERIFY_PLT, stuck)
    err = proc.stderr.decode()
    assert proc.returncode == 120
    assert err.startswith(
        "error: cannot write stdout: Resource temporarily unavailable\n" + HOOK_LINE
    )
    assert "BlockingIOError" in err


def test_profile_of_a_cli_run_is_written(tmp_path):
    prof = tmp_path / "verify.prof"
    proc = python(["-m", "cProfile", "-o", str(prof), "-m", "conekit.cli", *VERIFY_PLT])
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN_DIR / "verify_plt_53.txt").read_bytes()
    assert prof.stat().st_size > 0


def test_installed_script_is_the_entry_point():
    # a regex rather than tomllib, which needs Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (scripts,) = re.findall(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text, re.MULTILINE)
    (target,) = re.findall(r'^conekit\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.MULTILINE)
    module, attr = target
    assert getattr(importlib.import_module(module), attr) is cli.run
