import contextlib
import io
import os
from fractions import Fraction
from pathlib import Path

import argparse

import pytest

from conekit import cli, scenarios
from conekit.cli import build_parser, main, parse_divisor
from conekit.cohom import CohStatus
from conekit.cone3fold import KVV_MAX_STEPS
from conekit.contract import Contraction
from conekit.qlattice import NamedDivisor
from conekit.scenarios import SWEEP_MAX_ROWS

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("km_surface_d5_check", ["km-surface", "--d", "5", "--check"]),
    ("km_surface_d3_md", ["km-surface", "--d", "3", "--format", "md"]),
    (
        "km_surface_d3_check_md",
        ["km-surface", "--d", "3", "--check", "--format", "md"],
    ),
    ("contract_pullback", ["contract", "--d", "5", "--pullback", "E_1^T"]),
    (
        "contract_tables",
        ["contract", "--d", "5", "--discrepancies", "--classify", "--picard-rank"],
    ),
    (
        "contract_tables_md",
        ["contract", "--d", "5", "--discrepancies", "--classify", "--picard-rank",
         "--format", "md"],
    ),
    ("cohom_532", ["cohom", "--d", "5", "--q1", "3", "--q2", "2"]),
    (
        "cohom_532_md",
        ["cohom", "--d", "5", "--q1", "3", "--q2", "2", "--format", "md"],
    ),
    (
        "cohom_subtract_csv",
        ["cohom", "--d", "5", "--q1", "3", "--q2", "1", "--n", "1",
         "--subtract", "E_5", "--format", "csv"],
    ),
    ("cone_curve", ["cone", "--d", "5", "--q", "3", "--ledger", "curve"]),
    (
        "cone_curve_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "curve", "--format", "md"],
    ),
    ("cone_sections", ["cone", "--d", "5", "--q", "3", "--ledger", "sections"]),
    (
        "cone_sections_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "sections", "--format", "md"],
    ),
    ("cone_resolution", ["cone", "--d", "5", "--q", "3", "--ledger", "resolution"]),
    (
        "cone_resolution_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "resolution", "--format", "md"],
    ),
    ("cone_picard", ["cone", "--d", "5", "--q", "3", "--ledger", "picard"]),
    (
        "cone_picard_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "picard", "--format", "md"],
    ),
    ("cone_adjunction", ["cone", "--d", "5", "--q", "3", "--ledger", "adjunction"]),
    (
        "cone_adjunction_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "adjunction", "--format", "md"],
    ),
    (
        "kvv_schedule",
        ["kvv-schedule", "--e", "1,2", "--delta", "0,0", "--target", "3"],
    ),
    (
        "kvv_schedule_md",
        ["kvv-schedule", "--e", "1,2", "--delta", "0,0", "--target", "3",
         "--format", "md"],
    ),
    ("verify_plt_53", ["verify", "plt", "--d", "5", "--q", "3"]),
    ("verify_plt_53_md", ["verify", "plt", "--d", "5", "--q", "3", "--format", "md"]),
    ("verify_fano_2", ["verify", "fano", "--q", "2"]),
    ("verify_fano_2_md", ["verify", "fano", "--q", "2", "--format", "md"]),
    ("sweep_csv", ["sweep", "--d-min", "3", "--d-max", "5"]),
    ("sweep_md", ["sweep", "--d-min", "3", "--d-max", "5", "--format", "md"]),
    ("sweep_csv_full", ["sweep", "--d-min", "3", "--d-max", "12"]),
    ("sweep_json", ["sweep", "--d-min", "3", "--d-max", "4", "--format", "json"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_output_matches_golden_and_is_stable(name, argv):
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    golden = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REGEN_GOLDEN"):
        golden.write_bytes(out1.encode())
    assert golden.read_bytes() == out1.encode()


def _format_choices(parser, path=()):
    """Yield (command path, --format choice) for every leaf of the parser tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _format_choices(child, path + (name,))
        elif action.dest == "format":
            for choice in action.choices:
                yield path, choice


def _command_path(args) -> tuple[str, ...]:
    scenario = getattr(args, "scenario", None)
    return (args.command,) if scenario is None else (args.command, scenario)


def test_every_command_and_format_has_a_golden():
    parser = build_parser()
    pinned = set()
    for _, argv in GOLDEN_CASES:
        args = parser.parse_args(argv)
        pinned.add((_command_path(args), args.format))
    expected = set(_format_choices(parser))
    assert expected, "parser exposes no --format option"
    assert expected - pinned == set()


def test_verify_exit_codes():
    code, _ = run_cli(["verify", "plt", "--d", "5", "--q", "3"])
    assert code == 0
    code, _ = run_cli(["verify", "fano", "--q", "1"])
    assert code == 0


def test_usage_error_exit_code_from_preconditions():
    code, _ = run_cli(["verify", "plt", "--d", "4", "--q", "3"])
    assert code == 2
    code, _ = run_cli(["km-surface", "--d", "2"])
    assert code == 2
    code, _ = run_cli(["cone", "--d", "6", "--q", "4"])  # unit-fraction failure
    assert code == 2


def test_kvv_schedule_over_the_step_budget_is_a_usage_error(capsys):
    assert main(["kvv-schedule", "--e", "1", "--target", "10000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: schedule needs 10000000 steps, above the limit of "
        f"{KVV_MAX_STEPS}\n"
    )


@pytest.mark.parametrize(
    "e, shown", [("1.5", "1.5"), ("x", "x"), ("1,2.5", "1,2.5"), ("0", "(0,)")]
)
def test_kvv_schedule_bad_multiplicity_is_a_usage_error(capsys, e, shown):
    assert main(["kvv-schedule", "--e", e, "--target", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: multiplicities must be positive integers: {shown}\n"
    assert "invalid literal" not in captured.err
    assert "Fraction(" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["contract", "--d", "5", "--pullback", "1/0*E_1"],
        ["kvv-schedule", "--e", "1", "--target", "1/0"],
        ["kvv-schedule", "--e", "1", "--delta", "1/0", "--target", "1"],
    ],
    ids=["pullback", "target", "delta"],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in rational: '1/0'\n"


def test_kvv_schedule_errors_render_rationals(capsys):
    argv = ["kvv-schedule", "--e", "1,1", "--delta", "1/2,1e3", "--target", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: initial coefficients must lie in [0,1): [1/2, 1000]\n"
    )


def test_json_hook_renders_fractions_and_refuses_other_objects():
    assert cli._rat_json(Fraction(1, 2)) == "1/2"
    assert cli._rat_json(Fraction(3)) == "3"
    assert cli._json({"b": Fraction(1, 2), "m": 3}) == '{\n  "b": "1/2",\n  "m": 3\n}'
    # an object leaked into a payload fails loudly instead of printing its repr
    for leaked in (NamedDivisor.of({"E_1": 1}), CohStatus.exact(1)):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._rat_json(leaked)
        with pytest.raises(TypeError):
            cli._json({"value": [leaked]})


def test_sweep_over_the_row_budget_is_refused_before_any_contraction(
    monkeypatch, capsys
):
    built = []
    monkeypatch.setattr(scenarios, "target_context", built.append)
    assert main(["sweep", "--d-min", "3", "--d-max", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert built == []
    assert captured.out == ""
    rows = scenarios.sweep_rows(3, 1000000000)
    assert captured.err == (
        f"error: rows<=SWEEP_MAX_ROWS: window [3, 1000000000] has {rows} rows, "
        f"above the limit of {SWEEP_MAX_ROWS}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "--d", "25", "--q", "3", "--ledger", "sections"],
        ["verify", "plt", "--d", "25", "--q", "3"],
    ],
    ids=["cone-sections", "verify-plt"],
)
def test_surface_classification_runs_once_per_command(monkeypatch, argv):
    calls = []
    real = Contraction.classify_singularities

    def spy(self, boundary=None):
        calls.append(boundary)
        return real(self, boundary)

    monkeypatch.setattr(Contraction, "classify_singularities", spy)
    code, _ = run_cli(argv)
    assert code == 0
    assert calls == [None]


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "plt", "--d", "5"])
    assert err.value.code == 2


def test_sweep_out_writes_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code, text = run_cli(["sweep", "--d-min", "3", "--d-max", "4", "--out", str(out)])
    assert code == 0
    assert text == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,q1,q2,ample,h1,kvv_violation"
    assert len(lines) == 1 + 10 + 15


def test_parse_divisor():
    assert parse_divisor("E_1+E_2-E_4") == NamedDivisor.of(
        {"E_1": 1, "E_2": 1, "E_4": -1}
    )
    assert parse_divisor("2*E_1") == NamedDivisor.of({"E_1": 2})
    assert parse_divisor("1/2*l_3-Gamma") == NamedDivisor.of(
        {"l_3": Fraction(1, 2), "Gamma": -1}
    )
    assert parse_divisor("E_1^T") == NamedDivisor.of({"E_1": 1})
    assert parse_divisor("0").is_zero()
    with pytest.raises(ValueError):
        parse_divisor("E_1++")
